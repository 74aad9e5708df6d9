(* Shared plumbing: the run's arguments, timing, percentiles, memory,
   the metric table and the one-line JSON result. *)

open Oregami
module Clock = Prelude.Clock
module Spans = Perfbench.Spans
module Checks = Perfbench.Checks

(* set-up time counts from here: this module initialises before any
   workload code runs *)
let process_start = Clock.now ()

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  oregami : string;  (* the CLI binary, for the daemon workload *)
  out_dir : string;  (* run outputs: trace files, the daemon socket *)
}

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* ------------------------------------------------------------------ *)
(* timing *)

let timed f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.now () -. t0)

(* nearest-rank percentile, [p] in 0..100 *)
let percentile samples p =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

(* peak resident set of a process, from its /proc status (VmHWM) *)
let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error _ -> 0.0
  | lines ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) line)
              |> List.filter (fun s -> s <> "") with
        | [ "VmHWM:"; kb; "kB" ] -> float_of_string kb /. 1024.0
        | _ -> acc)
      0.0 lines

(* ------------------------------------------------------------------ *)
(* rounds *)

let shuffled ~seed ~round items =
  let a = Array.of_list items in
  Prelude.Rng.shuffle (Prelude.Rng.create ((seed * 7919) + round)) a;
  Array.to_list a

(* The timed part of every workload: whole rounds of the same
   operations until [seconds] of measured time are spent.  [op ~round
   ~rid x] performs one operation and returns the checks to run on its
   outcome; only the operation itself is timed.  [settle x] runs
   untimed before each operation, [after_round] untimed at the end of
   each round.  Returns every operation [counted] accepts with its
   latency (ms), and the measured duration (s) of every round. *)
type 'a timing = { samples : ('a * float) list; round_s : float list }

let run_rounds ?(counted = fun _ -> true) ?(settle = ignore) ?(after_round = ignore) ~seconds
    ~ops_of_round op =
  let latencies = ref [] and rounds = ref [] and measured = ref 0.0 and rid = ref 0 in
  let round = ref 0 in
  while !round = 0 || !measured < seconds do
    let spent =
      List.fold_left
        (fun spent x ->
          incr rid;
          settle x;
          let t0 = Clock.now () in
          let check = op ~round:!round ~rid:!rid x in
          let dt = Clock.now () -. t0 in
          check ();
          if counted x then latencies := (x, dt *. 1e3) :: !latencies;
          spent +. dt)
        0.0 (ops_of_round !round)
    in
    after_round !round;
    rounds := spent :: !rounds;
    measured := !measured +. spent;
    incr round
  done;
  { samples = !latencies; round_s = List.rev !rounds }

let rounds t = List.length t.round_s

let latencies t = List.map snd t.samples

(* Latency percentiles for workloads of a few heavy, repeated
   operations: each distinct operation's median latency over the
   rounds, then the percentile over the distinct operations.  With a
   dozen operations a round, a plain percentile over all samples would
   sit on the gap between two inputs' times or on a single maximum. *)
let typical_latencies ~key t =
  let by_op = Hashtbl.create 16 in
  List.iter
    (fun (x, ms) ->
      let k = key x in
      Hashtbl.replace by_op k (ms :: Option.value (Hashtbl.find_opt by_op k) ~default:[]))
    t.samples;
  Hashtbl.fold (fun _ mss acc -> percentile mss 50.0 :: acc) by_op []

(* operations per second of a median round: a slow stretch of the run
   (another tenant on the host, a stolen vCPU) moves a few rounds, not
   the figure *)
let ops_per_s ~ops t = float_of_int ops /. float_of_int (rounds t) /. percentile t.round_s 50.0

(* ------------------------------------------------------------------ *)
(* metrics *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("peak_rss_mb", "MB");
    ("completion_model", "model_units");
    ("sim_makespan", "sim_units");
    ("max_contention", "messages");
    ("total_ipc", "volume");
    ("migration_cost", "sim_units");
  ]

let per_layer =
  List.map
    (fun name ->
      let n = String.length name in
      (name, if n > 3 && String.sub name (n - 3) 3 = "_ms" then "ms" else "count"))
    [
      "synth.build_ms"; "topology.build_ms"; "distcache.hops_ms";
      "larcs.compile_ms"; "larcs.analyze_ms";
      "service.parse_ms"; "daemon.overhead_ms"; "daemon.cache_hits"; "daemon.cache_misses";
      "service.attempts"; "budget.fuel_used";
      "strategy.canned_ms"; "strategy.systolic_ms"; "strategy.group_ms"; "strategy.mwm_ms";
      "strategy.tiled_ms"; "strategy.blocks_ms"; "strategy.multilevel_ms";
      "multilevel.levels"; "multilevel.refine_moves"; "candidates.scored";
      "pipeline.place_ms"; "refine.swaps";
      "route.mm_ms"; "route.matching_rounds";
      "route.coarse_ms"; "route.coarse_pairs"; "route.coarse_messages";
      "mapping.validate_ms"; "metrics.completion_ms"; "netsim.run_ms";
      "cluster.arrive_ms"; "cluster.depart_ms"; "cluster.kill_ms"; "cluster.revive_ms";
      "cluster.repairs"; "cluster.remaps"; "cluster.evictions"; "cluster.repacks";
      "cluster.repacks_declined";
    ]

(* a per-layer value: span time for "*_ms" names (the span carries the
   name without the suffix), the named counter otherwise *)
let layer_value name =
  let n = String.length name in
  if n > 3 && String.sub name (n - 3) 3 = "_ms" then Spans.total_ms (String.sub name 0 (n - 3))
  else Spans.counter name

(* quality figures, summed over a workload's distinct mappings *)
type quality = { completion : int; makespan : int; contention : int; ipc : int; migration : int }

let no_quality = { completion = 0; makespan = 0; contention = 0; ipc = 0; migration = 0 }

let add_quality a b =
  {
    completion = a.completion + b.completion;
    makespan = a.makespan + b.makespan;
    contention = a.contention + b.contention;
    ipc = a.ipc + b.ipc;
    migration = a.migration + b.migration;
  }

let quality_metrics q =
  let f = float_of_int in
  [
    ("completion_model", f q.completion);
    ("sim_makespan", f q.makespan);
    ("max_contention", f q.contention);
    ("total_ipc", f q.ipc);
    ("migration_cost", f q.migration);
  ]

(* ------------------------------------------------------------------ *)
(* shared set-up and checks *)

let ok_or_fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let build_topology spec =
  let topo = Spans.span "topology.build" (fun () -> ok_or_fail spec (Topology.of_string spec)) in
  Spans.span "distcache.hops" (fun () -> ignore (Distcache.hops topo));
  topo

(* the processor hosting the most tasks, lowest id on ties *)
let busiest (m : Mapping.t) =
  let load = Array.make (Topology.node_count m.Mapping.topo) 0 in
  Array.iteri (fun t _ -> let p = Checks.proc_of_task m t in load.(p) <- load.(p) + 1) m.Mapping.cluster_of;
  let best = ref 0 in
  Array.iteri (fun p l -> if l > load.(!best) then best := p) load;
  !best

(* every output check on one mapping, then its quality figures; [Error]
   names the first check that failed.  [alive] defaults to a pristine
   machine. *)
let assess ?(alive = fun _ -> true) ~dist ~fault_pricing (m : Mapping.t) =
  let ( let* ) = Result.bind in
  let* () = Checks.mapping ~alive ~dist m in
  let summary = Metrics.summary m in
  let* () = Checks.summary_agrees m summary in
  let makespan = Spans.span "netsim.run" (fun () -> (Netsim.run m).Netsim.makespan) in
  let* migration =
    if not fault_pricing then Ok 0
    else
      let fault = { Netsim.at_slot = 1; kill_procs = [ busiest m ]; kill_links = [] } in
      Result.map (fun r -> r.Netsim.rv_migration_time) (Netsim.run_with_fault m fault)
  in
  Ok
    {
      completion = summary.Metrics.completion_time;
      makespan;
      contention = summary.Metrics.max_link_contention;
      ipc = summary.Metrics.total_ipc;
      migration;
    }

(* What a workload hands back.  [e2e] carries every end-to-end value;
   [layers] overrides (per-round normalised) per-layer values that do
   not come straight from the span recorder. *)
type result = {
  correct : bool;
  attempted : int;
  failed : int;
  measured_s : float;  (* time spent inside the timed operations *)
  e2e : (string * float) list;
  layers : (string * float) list;
}

let measured t = List.fold_left ( +. ) 0.0 t.round_s

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~trace r =
  let table = if trace then per_layer else end_to_end in
  let value name =
    match List.assoc_opt name (if trace then r.layers else r.e2e) with
    | Some v -> v
    | None when trace -> layer_value name
    | None -> failwith ("no value for end-to-end metric " ^ name)
  in
  let fields =
    List.map
      (fun (name, unit) ->
        let v = value name in
        let v = if Float.is_finite v then v else 0.0 in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      table
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed (String.concat ", " fields)
