module Topology = Oregami_topology.Topology
module Taskgraph = Oregami_taskgraph.Taskgraph
module Compile = Oregami_larcs.Compile
module Synth = Oregami_workloads.Synth
module Constraints = Oregami_mapper.Constraints
module Ctx = Oregami_mapper.Ctx
module Budget = Oregami_mapper.Budget
module Isolate = Oregami_mapper.Isolate
module Strategy = Oregami_mapper.Strategy
module Stats = Oregami_mapper.Stats
module Mapping = Oregami_mapper.Mapping
module Metrics = Oregami_metrics.Metrics
module Workloads = Oregami_workloads.Workloads
module Clock = Oregami_prelude.Clock
module Memo = Oregami_prelude.Memo
module Pool = Oregami_prelude.Pool

let ( let* ) = Result.bind
let ( let+ ) r f = Result.map f r

type format = Tsv | Sexp

type request = {
  rq_id : int;
  rq_program : string;
  rq_topology : string;
  rq_bindings : (string * int) list;
  rq_options : Ctx.options;
  rq_retries : int;
}

type outcome = {
  r_id : int;
  r_program : string;
  r_topology : string;
  r_ok : bool;
  r_strategy : string;
  r_degradation : Stats.degradation option;
  r_completion : int option;
  r_elapsed_ms : float;
  r_attempts : int;
  r_fuel_used : int;
  r_error : string;
}

(* a LaRCS source is human-written text; anything beyond this is a
   stray binary or a mistake, and slurping it unchecked would let one
   request balloon the service's memory *)
let max_program_bytes = 1 lsl 20

let load_program path_or_workload =
  match
    List.find_opt
      (fun s -> s.Workloads.w_name = path_or_workload)
      (Workloads.all ())
  with
  | Some spec -> Ok (spec.Workloads.source, spec.Workloads.bindings)
  | None -> begin
    try
      let ic = open_in path_or_workload in
      (* close on every exit, including a short read raising
         End_of_file out of really_input_string *)
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let len = in_channel_length ic in
          if len > max_program_bytes then
            Error
              (Printf.sprintf "%s: program too large: %d bytes (cap %d)"
                 path_or_workload len max_program_bytes)
          else Ok (really_input_string ic len, []))
    with
    | Sys_error m -> Error m
    | End_of_file ->
      Error (Printf.sprintf "%s: truncated read" path_or_workload)
  end

let merge_bindings bindings ~defaults =
  bindings @ List.filter (fun (k, _) -> not (List.mem_assoc k bindings)) defaults

(* ------------------------------------------------------------------ *)
(* programs: LaRCS or synthetic                                       *)

type source = Larcs of string * (string * int) list | Synthetic of Taskgraph.t

type program = { graph : Taskgraph.t; compiled : Compile.compiled option }

(* the one place a program argument is told apart: a synth: spec is
   built straight into a task graph, anything else is LaRCS *)
let source spec =
  if Synth.is_spec spec then
    let+ tg = Synth.build spec in
    Synthetic tg
  else
    let+ text, defaults = load_program spec in
    Larcs (text, defaults)

let build ?(bindings = []) = function
  | Synthetic graph -> Ok { graph; compiled = None }
  | Larcs (text, defaults) ->
    let+ c = Compile.compile_source ~bindings:(merge_bindings bindings ~defaults) text in
    { graph = c.Compile.graph; compiled = Some c }

let context ?options ?faults ?breaker p topo =
  match p.compiled with
  | Some c -> Ctx.of_compiled ?options ?faults ?breaker c topo
  | None -> Ctx.of_taskgraph ?options ?faults ?breaker p.graph topo

(* ------------------------------------------------------------------ *)
(* the request-option table                                           *)

type key = {
  k_name : string;
  k_flag : string;
  k_docv : string;
  k_doc : string;
  k_list : bool;
  k_set : Ctx.options -> string -> (Ctx.options, string) result;
}

let key ?(flag = "") ?(list = false) name ~docv ~doc set =
  let k_flag = if flag = "" then name else flag in
  { k_name = name; k_flag; k_docv = docv; k_doc = doc; k_list = list; k_set = set }

let non_negative name v =
  match int_of_string_opt v with
  | Some n when n >= 0 -> Ok n
  | Some _ | None -> Error (Printf.sprintf "%s wants a non-negative integer, got %S" name v)

let names v = String.split_on_char ',' v |> List.filter (fun n -> n <> "")

let int_key name ~docv ~doc set =
  key name ~docv ~doc (fun o v -> Result.map (set o) (non_negative name v))

(* placement constraints; on a request line [:] separates inside
   values since [=] already binds the key, e.g. pin=3:0,7:12 *)
let constraint_keys =
  let spec name ?flag ~docv ~doc set =
    key ?flag ~list:true name ~docv ~doc (fun o v ->
        let+ constraints = set o.Ctx.constraints v in
        { o with Ctx.constraints })
  in
  [
    spec "pin" ~docv:"TASK=PROC" ~doc:"Pin a task to a processor, e.g. $(b,--pin 3=0)."
      (fun c v -> Result.map (fun pins -> { c with Constraints.pins }) (Constraints.parse_pins v));
    spec "forbid" ~docv:"TASK=PROC"
      ~doc:"Forbid a task from a processor, e.g. $(b,--forbid 3=0)."
      (fun c v ->
        Result.map (fun forbids -> { c with Constraints.forbids }) (Constraints.parse_forbids v));
    spec "require" ~docv:"TASK=CLASS"
      ~doc:
        "Require a task to land on a processor of this capability class (see \
         the $(b,classes=) topology suffix), e.g. $(b,--require 3=mem).  \
         Overrides the program's $(b,requires) annotation."
      (fun c v ->
        Result.map (fun requires -> { c with Constraints.requires })
          (Constraints.parse_requires v));
    spec "skip" ~flag:"skip-class" ~docv:"CLASS"
      ~doc:
        "Exclude every processor of this capability class from placement \
         (they still route traffic)."
      (fun c v -> Ok { c with Constraints.skip_classes = names v });
  ]

let keys =
  [
    int_key "fuel" ~docv:"UNITS"
      ~doc:
        "Abstract work-unit budget for the whole pipeline run (deterministic \
         across machines).  When it runs out the passes stop early and the \
         best partial mapping is returned, tagged as degraded."
      (fun o n -> { o with Ctx.fuel = Some n });
    key "deadline-ms" ~docv:"MS"
      ~doc:
        "Monotonic wall-clock deadline in milliseconds, measured from the \
         start of the run.  Like $(b,fuel), expiry yields the best partial \
         mapping."
      (fun o v ->
        match float_of_string_opt v with
        | Some f when f >= 0.0 -> Ok { o with Ctx.deadline_ms = Some f }
        | Some _ | None ->
          Error (Printf.sprintf "deadline-ms wants a non-negative number, got %S" v));
    int_key "seed" ~docv:"N"
      ~doc:
        (Printf.sprintf "Seed for the randomized strategies (default %d)."
           Ctx.default_options.Ctx.seed)
      (fun o seed -> { o with Ctx.seed });
    key "routing" ~docv:"ALG"
      ~doc:
        "Routing algorithm: $(b,mm-route) (per-message MM-Route; $(b,mm) is \
         an alias), $(b,oblivious) (the topology's deterministic single-path \
         scheme), $(b,coarse) (traffic-aggregated MM-Route for large graphs), \
         or $(b,auto) (the default: mm-route up to the multilevel threshold, \
         coarse above)."
      (fun o v -> Result.map (fun routing -> { o with Ctx.routing }) (Ctx.routing_of_string v));
    key ~list:true "only" ~docv:"STRATEGY"
      ~doc:
        "Compete only these registry strategies; disables the dispatch \
         short-circuit so every named strategy is scored."
      (fun o v -> Ok { o with Ctx.only = names v });
    key ~list:true "exclude" ~docv:"STRATEGY"
      ~doc:"Drop these registry strategies from the selection."
      (fun o v -> Ok { o with Ctx.exclude = names v });
    int_key "multilevel-threshold" ~docv:"N"
      ~doc:
        (Printf.sprintf
           "Task count beyond which the flat strategies stand aside for the \
            multilevel coarsen/map/refine tier (default %d)."
           Ctx.default_options.Ctx.multilevel_threshold)
      (fun o multilevel_threshold -> { o with Ctx.multilevel_threshold });
  ]
  @ constraint_keys

let find_key k = List.find_opt (fun key -> key.k_name = k) keys

(* ------------------------------------------------------------------ *)
(* request parsing                                                    *)

let tokens line =
  String.split_on_char '\t' line
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (fun t -> t <> "")

let default_retries = 2

let fold_keys f init toks =
  List.fold_left
    (fun acc tok ->
      let* x, seen = acc in
      match String.index_opt tok '=' with
      | None | Some 0 -> Error (Printf.sprintf "bad token %S (want key=value)" tok)
      | Some i ->
        let k = String.sub tok 0 i in
        (* a repeated key is a client typo (the second value would
           silently win): fail loudly instead *)
        if List.mem k seen then
          Error (Printf.sprintf "duplicate key %S (each key may appear once)" k)
        else
          let* x = f x k (String.sub tok (i + 1) (String.length tok - i - 1)) in
          Ok (x, k :: seen))
    (Ok (init, []))
    toks
  |> Result.map fst

let apply_flags base given =
  let tokens (key, values) =
    let values =
      if key.k_list && values <> [] then [ String.concat "," values ] else values
    in
    List.map (fun v -> key.k_name ^ "=" ^ v) values
  in
  fold_keys
    (fun o k v ->
      match find_key k with
      | Some key -> key.k_set o v
      | None -> Error (Printf.sprintf "unknown option %S" k))
    base
    (List.concat_map tokens given)

let binding k v =
  match int_of_string_opt v with
  | Some n -> Ok (k, n)
  | None -> Error (Printf.sprintf "bad parameter %S (want an integer value)" (k ^ "=" ^ v))

let parse_request ~id line =
  match tokens line with
  | [] -> Ok None
  | t :: _ when t.[0] = '#' -> Ok None
  | [ _ ] -> Error "want: PROGRAM TOPOLOGY [key=value ...]"
  | program :: topology :: opts ->
    let* req =
      fold_keys
        (fun req k v ->
          match find_key k with
          | Some key ->
            let+ rq_options = key.k_set req.rq_options v in
            { req with rq_options }
          | None when k = "retries" ->
            let+ rq_retries = non_negative k v in
            { req with rq_retries }
          | None ->
            (* anything else is a program parameter binding *)
            let+ b = binding k v in
            { req with rq_bindings = b :: req.rq_bindings })
        {
          rq_id = id;
          rq_program = program;
          rq_topology = topology;
          rq_bindings = [];
          rq_options = { Ctx.default_options with Ctx.fallback = true };
          rq_retries = default_retries;
        }
        opts
    in
    Ok (Some { req with rq_bindings = List.rev req.rq_bindings })

(* ------------------------------------------------------------------ *)
(* the attempt schedule                                               *)

let compete_names () =
  List.filter_map
    (fun (s : Strategy.t) ->
      if s.Strategy.tier = Strategy.Compete then Some s.Strategy.name else None)
    (Strategy.registry ())

(* Options for attempt [n] of a request whose attempts began at
   [started].  Scope shrinks per retry: first drop refinement, then
   drop the whole competing tier so only the cheap dispatch paths (and
   the baseline fallback) remain.  The request has one deadline:
   attempt 0 gets all of it, a retry what is left, and [None] once it
   has passed, so no retry starts after it. *)
let attempt_options ~started base n =
  let options =
    match n with
    | 0 -> base
    | 1 -> { base with Ctx.refine = false }
    | _ ->
      {
        base with
        Ctx.refine = false;
        Ctx.only = [];
        Ctx.exclude = List.sort_uniq compare (base.Ctx.exclude @ compete_names ());
      }
  in
  match base.Ctx.deadline_ms with
  | Some d when n > 0 ->
    let left = d -. Clock.elapsed_ms started in
    if left > 0.0 then Some { options with Ctx.deadline_ms = Some left } else None
  | Some _ | None -> Some options

(* preference across attempts; retry only while something better is
   still reachable *)
let rank = function
  | Error _ -> 0
  | Ok (_, Stats.Fallback) -> 1
  | Ok (_, Stats.Truncated _) -> 2
  | Ok (_, Stats.Full) -> 3

(* ------------------------------------------------------------------ *)
(* shared artifact caches                                             *)

(* The two per-request setup costs worth amortising across a batch:
   loading the program and building the topology (with its hop
   matrix).  Both artifacts are immutable once built — a compiled
   program is never mutated by the pipeline, and a topology's
   Distcache state is domain-safe — so one copy can be shared
   read-only by every pool domain.  Error values are cached too: a
   missing program file fails once, not once per request naming it. *)
type caches = {
  c_programs : (string, (program, string) result) Memo.t;
      (* key: program path/name or synth: spec + sorted bindings *)
  c_topologies : (string, (Topology.t, string) result) Memo.t;
      (* key: the topology spec string *)
}

let caches ?bound () =
  { c_programs = Memo.create ?bound (); c_topologies = Memo.create ?bound () }

(* a stream never holds more than this many artifacts of each kind, so
   a long serve run or daemon life cannot grow its caches without limit *)
let cache_bound = 64

let program_key req =
  String.concat " "
    (req.rq_program
    :: List.map
         (fun (k, v) -> Printf.sprintf "%s=%d" k v)
         (List.sort compare req.rq_bindings))

(* a crash while building an artifact is that request's error *)
let protect f =
  match Isolate.protect f with Error exn -> Error ("internal crash: " ^ exn) | Ok r -> r

let build_topology spec =
  protect (fun () ->
      Result.map
        (fun t ->
          (* pre-warm the hop matrix once, here, so every request on
             this topology (from any domain) finds it published *)
          ignore (Oregami_topology.Distcache.hops t);
          t)
        (Topology.of_string spec))

(* topology first, so a request naming both a bad topology and a bad
   program reports the topology *)
let setup ?caches req =
  let cached table key build =
    match caches with Some c -> Memo.get (table c) key build | None -> build ()
  in
  let* topo =
    cached (fun c -> c.c_topologies) req.rq_topology (fun () ->
        build_topology req.rq_topology)
  in
  let* program =
    cached (fun c -> c.c_programs) (program_key req) (fun () ->
        protect (fun () -> Result.bind (source req.rq_program) (build ~bindings:req.rq_bindings)))
  in
  Ok (program, topo)

(* an error outcome for a request that ran nothing *)
let refusal ~id ~program ~topology msg =
  {
    r_id = id;
    r_program = program;
    r_topology = topology;
    r_ok = false;
    r_strategy = "-";
    r_degradation = None;
    r_completion = None;
    r_elapsed_ms = 0.0;
    r_attempts = 0;
    r_fuel_used = 0;
    r_error = msg;
  }

let run_request ?breaker ?caches req =
  let breaker =
    match breaker with Some b -> b | None -> Isolate.breaker ()
  in
  let attempts = ref 0 in
  let fuel = ref 0 in
  let result, seconds =
    Clock.time (fun () ->
        match setup ?caches req with
        | Error e -> Error e
        | Ok (program, topo) ->
          let best = ref (Error "not attempted") in
          let n = ref 0 in
          let continue = ref true in
          let started = Clock.now () in
          while !continue && !n <= req.rq_retries do
            match attempt_options ~started req.rq_options !n with
            | None -> continue := false
            | Some options ->
              let r, used =
                match
                  Isolate.protect (fun () ->
                      let ctx = context ~options ~breaker program topo in
                      let r = Driver.run ctx in
                      (r, Budget.fuel_used ctx.Ctx.budget))
                with
                | Error exn -> (Error ("internal crash: " ^ exn), 0)
                | Ok (r, used) -> (r, used)
              in
              incr n;
              fuel := !fuel + used;
              (* first attempt always lands, so a failing request reports
                 its real error instead of the placeholder *)
              if !n = 1 || rank r > rank !best then best := r;
              (* 3 = Ok Full: nothing better is reachable *)
              if rank !best >= 3 then continue := false
          done;
          attempts := !n;
          !best)
  in
  let ran e =
    {
      (refusal ~id:req.rq_id ~program:req.rq_program ~topology:req.rq_topology e) with
      r_elapsed_ms = seconds *. 1e3;
      r_attempts = !attempts;
      r_fuel_used = !fuel;
    }
  in
  match result with
  | Ok (m, deg) ->
    {
      (ran "") with
      r_ok = true;
      r_strategy = m.Mapping.strategy;
      r_degradation = Some deg;
      r_completion = Some (Metrics.completion_time m);
    }
  | Error e -> ran e

(* ------------------------------------------------------------------ *)
(* rendering                                                          *)

let sanitize s =
  String.map (fun c -> if c = '\t' || c = '\n' || c = '\r' then ' ' else c) s

let degradation_field o =
  match o.r_degradation with
  | None -> "-"
  | Some d -> Stats.degradation_string d

let render fmt o =
  match fmt with
  | Tsv ->
    Printf.sprintf "%d\t%s\t%s\t%s\t%s\t%s\t%s\t%.3f\t%d\t%d\t%s" o.r_id
      (sanitize o.r_program) (sanitize o.r_topology)
      (if o.r_ok then "ok" else "error")
      o.r_strategy (degradation_field o)
      (match o.r_completion with None -> "-" | Some c -> string_of_int c)
      o.r_elapsed_ms o.r_attempts o.r_fuel_used
      (if o.r_error = "" then "-" else sanitize o.r_error)
  | Sexp ->
    Printf.sprintf
      "(result (id %d) (program %S) (topology %S) (status %s) (strategy %S) \
       (degradation %S) (completion %s) (elapsed-ms %.3f) (attempts %d) \
       (fuel %d)%s)"
      o.r_id o.r_program o.r_topology
      (if o.r_ok then "ok" else "error")
      o.r_strategy (degradation_field o)
      (match o.r_completion with None -> "-" | Some c -> string_of_int c)
      o.r_elapsed_ms o.r_attempts o.r_fuel_used
      (if o.r_error = "" then "" else Printf.sprintf " (error %S)" o.r_error)

(* ------------------------------------------------------------------ *)
(* the serve loop                                                     *)

let malformed ~id ~line e =
  match tokens line with
  | p :: t :: _ -> refusal ~id ~program:p ~topology:t e
  | [ p ] -> refusal ~id ~program:p ~topology:"-" e
  | [] -> refusal ~id ~program:"-" ~topology:"-" e

(* [f] sees every request of [ic] in order: [Ok] to run, or [Error]
   with the answer for a malformed line *)
let iter_requests ic f =
  let next_id = ref 0 in
  try
    while true do
      let line = input_line ic in
      match parse_request ~id:(!next_id + 1) line with
      | Ok None -> ()
      | Ok (Some req) ->
        incr next_id;
        f (Ok req)
      | Error e ->
        incr next_id;
        f (Error (malformed ~id:!next_id ~line e))
    done
  with End_of_file -> ()

let serve ?(format = Tsv) ?breaker ?(jobs = 1) ic oc =
  let breaker =
    match breaker with Some b -> b | None -> Isolate.breaker ()
  in
  let caches = caches ~bound:cache_bound () in
  let answer = function Error o -> o | Ok req -> run_request ~breaker ~caches req in
  let failed = ref false in
  let emit o =
    if not o.r_ok then failed := true;
    output_string oc (render format o);
    output_char oc '\n';
    flush oc
  in
  if jobs <= 1 then iter_requests ic (fun w -> emit (answer w))
  else begin
    (* the pool needs the request count up front, so a wider run reads
       the whole batch first; results still come out in request order
       as each prefix completes *)
    let work = ref [] in
    iter_requests ic (fun w -> work := w :: !work);
    let work = Array.of_list (List.rev !work) in
    Pool.run ~jobs ~n:(Array.length work)
      ~task:(fun i -> answer work.(i))
      ~emit:(fun _ o -> emit o)
  end;
  if !failed then 1 else 0
