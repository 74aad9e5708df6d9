(* The two bare-task-graph workloads, both mapped by
   Driver.report_taskgraph under default options:

   - flat-irregular: R-MAT graphs of a few hundred tasks and binary
     trees of ~1500 tasks on torus:8x8 and hypercube:6, where
     MWM-Contract does most of the work;
   - large-tier: a 10^4-task R-MAT graph and a 3*10^4-task grid on
     torus:16x16, through the multilevel tier and coarse routing.

   A round maps every (graph, topology) pair once, in an order drawn
   from the seed; every round must reproduce the first round's
   mappings exactly.  Before each mapping, untimed, the target
   topology is rebuilt (hop matrix included) and the heap collected,
   so every mapping starts as a fresh `oregami map` process would,
   without the route memo or the garbage an earlier mapping left.
   Quality metrics are sums over the distinct pairs, so they repeat
   exactly whatever the seed and the round count. *)

open Oregami
open Common

type spec = {
  graphs : string list;
  topologies : string list;
  no_fault_pricing : string list;
      (* graphs whose fault-repair pricing is left out: Repair re-routes
         every message with MM-Route, which takes ~96 s at 10^4 tasks *)
}

let flat_irregular =
  {
    graphs =
      [
        "synth:rmat:300:1"; "synth:rmat:300:2"; "synth:rmat:300:3"; "synth:rmat:300:4";
        "synth:tree:1500"; "synth:tree:1400";
      ];
    topologies = [ "torus:8x8"; "hypercube:6" ];
    no_fault_pricing = [];
  }

let large_tier =
  {
    graphs = [ "synth:rmat:10000"; "synth:grid:30000" ];
    topologies = [ "torus:16x16" ];
    no_fault_pricing = [ "synth:rmat:10000" ];
  }

(* one (graph, topology) pair; [topo] is rebuilt before every mapping *)
type pair = { graph : string; target : string; tg : Taskgraph.t; mutable topo : Topology.t }

let settle p =
  p.topo <- ok_or_fail p.target (Topology.of_string p.target);
  ignore (Distcache.hops p.topo);
  Gc.full_major ()

let run spec (args : args) =
  (* set-up: every graph, topology and hop matrix, built once *)
  let graphs =
    List.map (fun g -> (g, Spans.span "synth.build" (fun () -> ok_or_fail g (Synth.build g)))) spec.graphs
  in
  let topos = List.map (fun t -> (t, build_topology t)) spec.topologies in
  let pairs =
    List.concat_map
      (fun (graph, tg) -> List.map (fun (target, topo) -> { graph; target; tg; topo }) topos)
      graphs
  in
  let setup_s = Clock.now () -. process_start in
  (* the timed part: later rounds must reproduce the first round's
     strategy and placement exactly *)
  let first = Hashtbl.create 16 in
  let failed = ref 0 and problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let timing =
    run_rounds ~seconds:args.seconds ~settle
      ~ops_of_round:(fun round -> shuffled ~seed:args.seed ~round pairs)
      (fun ~round ~rid p ->
        let result = fst (Spans.span ~rid "map" (fun () -> Driver.report_taskgraph p.tg p.topo)) in
        fun () ->
          match result with
          | Error e ->
            incr failed;
            log "%s on %s failed: %s" p.graph p.target e
          | Ok m -> (
            match Hashtbl.find_opt first (p.graph, p.target) with
            | None ->
              (* kept for the checks on the set-up topology: the one it
                 was mapped on carries that mapping's route memo *)
              Hashtbl.replace first (p.graph, p.target) { m with Mapping.topo = List.assoc p.target topos }
            | Some m0 ->
              if m.Mapping.strategy <> m0.Mapping.strategy || Mapping.assignment m <> Mapping.assignment m0
              then problem "%s on %s: round %d mapped differently" p.graph p.target round))
  in
  let ops = rounds timing * List.length pairs in
  let typical = typical_latencies ~key:(fun p -> (p.graph, p.target)) timing in
  let peak_rss = peak_rss_mb 0 in
  (* checks and quality, once per distinct pair *)
  let dists = List.map (fun (t, topo) -> (t, Checks.bfs_distances topo)) topos in
  let total = ref no_quality in
  List.iter
    (fun p ->
      let g = p.graph and t = p.target in
      match Hashtbl.find_opt first (g, t) with
      | None -> ()
      | Some m -> (
        let fault_pricing = not (List.mem g spec.no_fault_pricing) in
        match assess ~dist:(List.assoc t dists) ~fault_pricing m with
        | Error e -> problem "%s on %s: %s" g t e
        | Ok q -> (
          total := add_quality !total q;
          if args.trace then begin
            (* the traced replay, on a fresh topology like the mapping it
               replays, must land on the same winner *)
            settle p;
            match Replay.run (Ctx.of_taskgraph p.tg p.topo) with
            | Error e -> problem "%s on %s: replay: %s" g t e
            | Ok (m', c') ->
              if m'.Mapping.strategy <> m.Mapping.strategy || c' <> q.completion then
                problem "%s on %s: replay chose %s (%d), the pipeline %s (%d)" g t m'.Mapping.strategy c'
                  m.Mapping.strategy q.completion
          end)))
    pairs;
  List.iter (fun p -> log "check failed: %s" p) (List.rev !problems);
  {
    correct = !problems = [];
    attempted = ops;
    failed = !failed;
    measured_s = measured timing;
    e2e =
      [
        ("setup_s", setup_s);
        ("ops_per_s", ops_per_s ~ops timing);
        ("latency_p50_ms", percentile typical 50.0);
        ("latency_p99_ms", percentile typical 99.0);
        ("peak_rss_mb", peak_rss);
      ]
      @ quality_metrics !total;
    layers = [];
  }
