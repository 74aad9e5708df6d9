(* Placement constraints as part of the shared mapping contract (the
   UGRAMM scenario: typed PEs, lock-nodes, skip-placement classes and a
   DRC pass).  A [spec] is what the CLI / service / caller asks for; it
   is compiled once per run against the concrete task graph and
   (possibly degraded, possibly classed) topology into a [t] holding
   dense per-task / per-processor tables plus any spec errors.
   Compilation is total — [Ctx.make] cannot fail — so the pipeline
   checks [errors] up front and every strategy consults the same
   [feasible] predicate. *)

module Taskgraph = Oregami_taskgraph.Taskgraph
module Topology = Oregami_topology.Topology

type spec = {
  pins : (int * int) list;
  forbids : (int * int) list;
  requires : (int * string) list;
  skip_classes : string list;
}

let none = { pins = []; forbids = []; requires = []; skip_classes = [] }

type t = {
  n : int;
  nprocs : int;
  active : bool;
  pin_of : int array;  (* task -> processor, -1 when free *)
  require_of : string array;  (* task -> required class, "" when none *)
  forbidden : (int * int, unit) Hashtbl.t;
  proc_class : string array;
  skip : bool array;  (* processor is a skip-placement target *)
  errors : string list;
}

let errors t = t.errors

let active t = t.active

let skip_proc t p = p >= 0 && p < t.nprocs && t.skip.(p)

let pinned t task = if t.pin_of.(task) >= 0 then Some t.pin_of.(task) else None

(* the one predicate every strategy and the repair path share; an
   empty spec makes it the allow-all filter *)
let feasible t ~task ~proc =
  proc >= 0 && proc < t.nprocs
  && ((not t.active)
     || (not t.skip.(proc))
        && (not (Hashtbl.mem t.forbidden (task, proc)))
        && (t.require_of.(task) = "" || t.require_of.(task) = t.proc_class.(proc))
        && (t.pin_of.(task) < 0 || t.pin_of.(task) = proc))

let compile spec tg topo =
  let n = tg.Taskgraph.n in
  let nprocs = Topology.node_count topo in
  let proc_class = Topology.node_classes topo in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let classes = Topology.class_names topo in
  let classes_s = String.concat ", " classes in
  let task_ok what t =
    if t < 0 || t >= n then begin
      err "%s: task %d out of range (task graph has %d tasks)" what t n;
      false
    end
    else true
  in
  let proc_ok what p =
    if p < 0 || p >= nprocs then begin
      err "%s: processor %d out of range (topology has %d processors)" what p nprocs;
      false
    end
    else true
  in
  let skip = Array.make nprocs false in
  List.iter
    (fun cls ->
      if not (List.mem cls classes) then
        err "skip-placement class %S not present on %s (classes: %s)" cls
          (Topology.name topo) classes_s
      else
        Array.iteri (fun p c -> if c = cls then skip.(p) <- true) proc_class)
    spec.skip_classes;
  (* program-declared requirements first; explicit request-level
     requirements override them *)
  let require_of = Array.copy tg.Taskgraph.node_requires in
  List.iter
    (fun (t, cls) -> if task_ok "require" t then require_of.(t) <- cls)
    spec.requires;
  let missing_classes = Hashtbl.create 4 in
  Array.iteri
    (fun t cls ->
      if cls <> "" && not (Hashtbl.mem missing_classes cls) then begin
        let available =
          Array.exists
            (fun p -> Topology.alive topo p && (not skip.(p)) && proc_class.(p) = cls)
            (Array.init nprocs Fun.id)
        in
        if not available then begin
          Hashtbl.add missing_classes cls ();
          err "task %d requires class %S but no alive placeable processor offers it (classes: %s)"
            t cls classes_s
        end
      end)
    require_of;
  let forbidden = Hashtbl.create (max 16 (List.length spec.forbids)) in
  List.iter
    (fun (t, p) ->
      if task_ok "forbid" t && proc_ok "forbid" p then
        Hashtbl.replace forbidden (t, p) ())
    spec.forbids;
  let pin_of = Array.make n (-1) in
  let pin_target = Hashtbl.create 16 in
  List.iter
    (fun (t, p) ->
      if task_ok "pin" t && proc_ok "pin" p then begin
        if pin_of.(t) >= 0 && pin_of.(t) <> p then
          err "task %d pinned to both processors %d and %d" t pin_of.(t) p
        else begin
          pin_of.(t) <- p;
          if not (Topology.alive topo p) then
            err "task %d pinned to dead processor %d" t p
          else if skip.(p) then
            err "task %d pinned to processor %d of skip-placement class %S" t p
              proc_class.(p)
          else if Hashtbl.mem forbidden (t, p) then
            err "task %d both pinned and forbidden on processor %d" t p
          else if require_of.(t) <> "" && require_of.(t) <> proc_class.(p) then
            err "task %d requires class %S but is pinned to processor %d of class %S" t
              require_of.(t) p proc_class.(p)
          else begin
            (* injective embedding: one cluster per processor, so two
               pinned tasks sharing a processor must form one cluster —
               legal, handled by the projection; nothing to check here *)
            match Hashtbl.find_opt pin_target p with
            | Some _ | None -> Hashtbl.replace pin_target p ()
          end
        end
      end)
    spec.pins;
  let active =
    Array.exists (fun p -> p >= 0) pin_of
    || Array.exists (fun c -> c <> "") require_of
    || Hashtbl.length forbidden > 0
    || Array.exists Fun.id skip
  in
  {
    n;
    nprocs;
    active;
    pin_of;
    require_of;
    forbidden;
    proc_class;
    skip;
    errors = List.rev !errs;
  }

(* ------------------------------------------------------------------ *)
(* DRC: named design-rule violations over a per-task assignment        *)

type violation = { vi_task : int; vi_proc : int; vi_rule : string }

let violation_to_string v =
  Printf.sprintf "task %d on processor %d violates %s" v.vi_task v.vi_proc v.vi_rule

let drc t assignment =
  let out = ref [] in
  let add vi_task vi_proc vi_rule = out := { vi_task; vi_proc; vi_rule } :: !out in
  Array.iteri
    (fun task proc ->
      if t.pin_of.(task) >= 0 && t.pin_of.(task) <> proc then
        add task proc (Printf.sprintf "pin (task pinned to processor %d)" t.pin_of.(task));
      if Hashtbl.mem t.forbidden (task, proc) then add task proc "forbid";
      if t.require_of.(task) <> "" && t.require_of.(task) <> t.proc_class.(proc) then
        add task proc
          (Printf.sprintf "require-class (needs %S, processor is %S)" t.require_of.(task)
             t.proc_class.(proc));
      if proc >= 0 && proc < t.nprocs && t.skip.(proc) then
        add task proc
          (Printf.sprintf "skip-class (processor class %S is skip-placement)"
             t.proc_class.(proc)))
    assignment;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* projection onto a candidate's clusters, for the shared embed pass   *)

type projection = {
  pj_fixed : int array;  (* cluster -> processor, -1 when free *)
  pj_require : string array;  (* cluster -> required class, "" when none *)
  pj_forbid : (int * int, unit) Hashtbl.t;  (* (cluster, proc) *)
}

let project t ~clusters ~cluster_of =
  let fixed = Array.make clusters (-1) in
  let req = Array.make clusters "" in
  let forbid = Hashtbl.create (max 16 (Hashtbl.length t.forbidden)) in
  let error = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !error = None then error := Some m) fmt in
  Array.iteri
    (fun task c ->
      (match t.pin_of.(task) with
      | -1 -> ()
      | p ->
        if fixed.(c) >= 0 && fixed.(c) <> p then
          fail "cluster %d merges tasks pinned to processors %d and %d" c fixed.(c) p
        else fixed.(c) <- p);
      let r = t.require_of.(task) in
      if r <> "" then begin
        if req.(c) <> "" && req.(c) <> r then
          fail "cluster %d merges tasks requiring classes %S and %S" c req.(c) r
        else req.(c) <- r
      end)
    cluster_of;
  Hashtbl.iter (fun (task, p) () -> Hashtbl.replace forbid (cluster_of.(task), p) ())
    t.forbidden;
  (* two clusters pinned to one processor breaks the injective
     embedding before any placement runs *)
  let seen = Hashtbl.create 16 in
  Array.iteri
    (fun c p ->
      if p >= 0 then begin
        (match Hashtbl.find_opt seen p with
        | Some c' -> fail "clusters %d and %d are both pinned to processor %d" c' c p
        | None -> Hashtbl.replace seen p c);
        if Hashtbl.mem forbid (c, p) then
          fail "cluster %d is pinned to processor %d but a member task forbids it" c p;
        if req.(c) <> "" && req.(c) <> t.proc_class.(p) then
          fail "cluster %d requires class %S but is pinned to processor %d of class %S" c
            req.(c) p t.proc_class.(p)
      end)
    fixed;
  match !error with
  | Some e -> Error e
  | None -> Ok { pj_fixed = fixed; pj_require = req; pj_forbid = forbid }

let cluster_allowed t pj cluster proc =
  proc >= 0 && proc < t.nprocs
  && (not t.skip.(proc))
  && (not (Hashtbl.mem pj.pj_forbid (cluster, proc)))
  && (pj.pj_require.(cluster) = "" || pj.pj_require.(cluster) = t.proc_class.(proc))
  && (pj.pj_fixed.(cluster) < 0 || pj.pj_fixed.(cluster) = proc)

(* ------------------------------------------------------------------ *)
(* spec notation shared by the CLI and the request service             *)

let parse_pair what s =
  let split =
    match String.index_opt s '=' with
    | Some i -> Some i
    | None -> String.index_opt s ':'
  in
  match split with
  | None -> Error (Printf.sprintf "bad %s %S (want TASK=%s)" what s
                     (if what = "require" then "CLASS" else "PROC"))
  | Some i ->
    let a = String.sub s 0 i and b = String.sub s (i + 1) (String.length s - i - 1) in
    (match int_of_string_opt a with
    | None -> Error (Printf.sprintf "bad %s %S: task %S is not an integer" what s a)
    | Some t -> Ok (t, b))

let parse_task_proc what s =
  match parse_pair what s with
  | Error _ as e -> e
  | Ok (t, b) -> begin
    match int_of_string_opt b with
    | None -> Error (Printf.sprintf "bad %s %S: processor %S is not an integer" what s b)
    | Some p -> Ok (t, p)
  end

let parse_list item s =
  let parts = String.split_on_char ',' s |> List.filter (fun x -> x <> "") in
  List.fold_left
    (fun acc p ->
      match (acc, item p) with
      | (Error _ as e), _ -> e
      | Ok l, Ok x -> Ok (x :: l)
      | Ok _, (Error _ as e) -> e)
    (Ok []) parts
  |> Result.map List.rev

let parse_pins s = parse_list (parse_task_proc "pin") s

let parse_forbids s = parse_list (parse_task_proc "forbid") s

let parse_requires s = parse_list (parse_pair "require") s

let describe spec =
  let pair (t, p) = Printf.sprintf "%d=%d" t p in
  let rq (t, c) = Printf.sprintf "%d=%s" t c in
  String.concat " "
    (List.concat
       [
         (if spec.pins = [] then []
          else [ "pin " ^ String.concat "," (List.map pair spec.pins) ]);
         (if spec.forbids = [] then []
          else [ "forbid " ^ String.concat "," (List.map pair spec.forbids) ]);
         (if spec.requires = [] then []
          else [ "require " ^ String.concat "," (List.map rq spec.requires) ]);
         (if spec.skip_classes = [] then []
          else [ "skip " ^ String.concat "," spec.skip_classes ]);
       ])
