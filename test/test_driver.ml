(* End-to-end tests of the MAPPER dispatch (paper Fig 3) and the
   scheduling extension. *)

open Oregami

let map_workload ?options spec topo_s =
  let kind = Result.get_ok (Topology.parse topo_s) in
  let topo = Topology.make kind in
  let compiled = Workloads.compile_exn spec in
  match Driver.map_compiled ?options compiled topo with
  | Ok m -> m
  | Error e -> Alcotest.failf "%s on %s: %s" spec.Workloads.w_name topo_s e

let test_dispatch_choices () =
  let strategy spec topo_s = (map_workload spec topo_s).Mapping.strategy in
  (* nameable families take the canned path *)
  Alcotest.(check string) "fft -> hypercube canned" "canned:hypercube"
    (strategy (Workloads.fft ~d:4) "hypercube:3");
  Alcotest.(check string) "divconq -> binomial canned" "canned:binomial"
    (strategy (Workloads.divide_and_conquer ~k:4) "mesh:4x4");
  Alcotest.(check string) "jacobi -> mesh canned" "canned:mesh"
    (strategy (Workloads.jacobi ~n:8 ~iters:2) "mesh:4x4");
  (* node-symmetric graphs with dividing sizes take the group path *)
  Alcotest.(check string) "voting -> group" "group-theoretic"
    (strategy (Workloads.voting ~k:3) "hypercube:2");
  (* 15 tasks on 8 processors cannot use cosets: general path (MWM or
     one of its tiling/block rivals, chosen by the completion model) *)
  let general s = List.mem s [ "mwm+nn"; "tiled+nn"; "blocks+nn" ] in
  Alcotest.(check bool) "nbody 15 -> general path" true
    (general (strategy (Workloads.nbody ~n:15 ~s:1) "hypercube:3"));
  (* sor red/black phases are not bijections: general path *)
  Alcotest.(check bool) "sor -> general path" true
    (general (strategy (Workloads.sor ~n:6 ~iters:1) "hypercube:3"));
  (* 3-D uniform recurrences project systolically onto meshes *)
  Alcotest.(check string) "matmul3d -> systolic projection" "systolic:projection"
    (strategy (Workloads.matmul3d ~n:4) "mesh:4x4")

let test_dispatch_flags () =
  (* excluding dispatch paths forces the fallback *)
  let spec = Workloads.fft ~d:3 in
  let no_canned =
    { Driver.default_options with Driver.exclude = [ "canned" ] }
  in
  let m = map_workload ~options:no_canned spec "hypercube:3" in
  Alcotest.(check string) "canned disabled -> group" "group-theoretic" m.Mapping.strategy;
  let neither =
    { Driver.default_options with Driver.exclude = [ "canned"; "group" ] }
  in
  let m = map_workload ~options:neither spec "hypercube:3" in
  Alcotest.(check bool) "both disabled -> general path" true
    (List.mem m.Mapping.strategy [ "mwm+nn"; "tiled+nn"; "blocks+nn" ])

let test_all_pairs_validate () =
  let topologies =
    [ "hypercube:3"; "hypercube:4"; "mesh:4x4"; "mesh:2x4"; "torus:4x4"; "ring:8";
      "line:12"; "bintree:3"; "ccc:3"; "butterfly:2"; "complete:6"; "hex:3x3" ]
  in
  List.iter
    (fun spec ->
      List.iter
        (fun topo_s ->
          let m = map_workload spec topo_s in
          match Mapping.validate m with
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "%s on %s (%s): %s" spec.Workloads.w_name topo_s
              m.Mapping.strategy e)
        topologies)
    (Workloads.all ())

let test_oblivious_routing_validates () =
  let options = { Driver.default_options with Driver.routing = Driver.Oblivious } in
  List.iter
    (fun topo_s ->
      let m = map_workload ~options (Workloads.nbody ~n:15 ~s:1) topo_s in
      match Mapping.validate m with
      | Ok () -> ()
      | Error e -> Alcotest.failf "oblivious on %s: %s" topo_s e)
    [ "hypercube:3"; "mesh:4x4"; "torus:2x4"; "ring:6" ]

let test_map_source_pipeline () =
  let spec = Workloads.annealing ~n:4 ~sweeps:2 in
  match
    map_source ~bindings:spec.Workloads.bindings spec.Workloads.source ~topology:"mesh:2x2"
  with
  | Error e -> Alcotest.failf "map_source: %s" e
  | Ok (m, s) ->
    Alcotest.(check int) "procs" 4 s.Metrics.procs;
    Alcotest.(check int) "tasks" 16 s.Metrics.tasks;
    Alcotest.(check bool) "validates" true (Mapping.validate m = Ok ());
    Alcotest.(check bool) "nonzero completion" true (s.Metrics.completion_time > 0)

let test_map_source_errors () =
  (match map_source "algorithm x(" ~topology:"ring:4" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "syntax error accepted");
  match map_source "algorithm x(); nodetype t : 0..3; comphase c { t i -> t ((i+1) mod 4); } phases c;" ~topology:"nosuch:4" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad topology accepted"

let test_strategy_preview () =
  let compiled = Workloads.compile_exn (Workloads.voting ~k:3) in
  let topo = Topology.make (Topology.Hypercube 2) in
  Alcotest.(check string) "preview matches" "group-theoretic"
    (Driver.strategy_preview compiled topo)

let test_better_than_random () =
  (* the paper's thesis: informed mapping beats naive placement.
     Compare simulated makespans across the suite on a hypercube. *)
  let rng = Prelude.Rng.create 123 in
  let worse = ref 0 and total = ref 0 in
  List.iter
    (fun spec ->
      let m = map_workload spec "hypercube:3" in
      let tg = m.Mapping.tg in
      let rc, rp = Mapper.Baselines.random rng ~n:tg.Taskgraph.n ~procs:8 in
      let proc_of_task = Array.init tg.Taskgraph.n (fun t -> rp.(rc.(t))) in
      let routings, _ = Mapper.Route.mm_route tg m.Mapping.topo ~proc_of_task in
      let random_m =
        {
          Mapping.tg;
          topo = m.Mapping.topo;
          cluster_of = rc;
          proc_of_cluster = rp;
          routings;
          strategy = "random";
        }
      in
      let a = (Netsim.run m).Netsim.makespan in
      let b = (Netsim.run random_m).Netsim.makespan in
      incr total;
      if a > b then incr worse)
    (Workloads.all ());
  (* allow at most one workload where random happens to win *)
  Alcotest.(check bool)
    (Printf.sprintf "OREGAMI loses to random on %d/%d workloads" !worse !total)
    true (!worse <= 1)

(* ------------------------------------------------------------------ *)
(* scheduling extension (§6)                                           *)

let test_synchrony_sets () =
  let m = map_workload (Workloads.voting ~k:3) "hypercube:2" in
  let dirs = Sched.default_directives m in
  Alcotest.(check int) "four processors busy" 4 (List.length dirs);
  let sets = Sched.synchrony_sets m dirs in
  Alcotest.(check int) "two ranks" 2 (List.length sets);
  List.iter
    (fun set -> Alcotest.(check int) "one task per processor" 4 (List.length set))
    sets

let test_synchronized_no_worse () =
  List.iter
    (fun (spec, topo_s) ->
      let m = map_workload spec topo_s in
      let base = Sched.staggered_makespan m (Sched.default_directives m) in
      let sync = Sched.staggered_makespan m (Sched.synchronized_directives m) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: synchronized %d <= default %d" spec.Workloads.w_name sync base)
        true (sync <= base))
    [
      (Workloads.nbody ~n:16 ~s:1, "hypercube:2");
      (Workloads.jacobi ~n:6 ~iters:2, "mesh:2x2");
      (Workloads.voting ~k:4, "hypercube:2");
    ]

let test_staggered_vs_barrier () =
  (* overlapping exec and comm can only help relative to the barrier
     model, which is exactly the netsim makespan *)
  let m = map_workload (Workloads.nbody ~n:16 ~s:1) "hypercube:2" in
  let barrier = (Netsim.run m).Netsim.makespan in
  let staggered = Sched.staggered_makespan m (Sched.default_directives m) in
  Alcotest.(check bool) "overlap helps" true (staggered <= barrier)

(* ------------------------------------------------------------------ *)
(* scale                                                               *)

let test_stress_scale () =
  (* 400 tasks onto 64 processors and 255 onto 16: the full pipeline
     stays well under a second and the mappings validate *)
  let cases =
    [
      (Workloads.jacobi ~n:20 ~iters:2, "mesh:8x8", 400);
      (Workloads.nbody ~n:255 ~s:1, "hypercube:4", 255);
      (Workloads.fft ~d:6, "hypercube:4", 64);
    ]
  in
  List.iter
    (fun (spec, topo_s, tasks) ->
      let m = map_workload spec topo_s in
      Alcotest.(check int) (spec.Workloads.w_name ^ " tasks") tasks m.Mapping.tg.Taskgraph.n;
      (match Mapping.validate m with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" spec.Workloads.w_name e);
      let s = Metrics.summary m in
      Alcotest.(check bool) "completion positive" true (s.Metrics.completion_time > 0);
      let r = Netsim.run m in
      Alcotest.(check bool) "simulates" true (r.Netsim.makespan > 0))
    cases

let test_wormhole_end_to_end () =
  (* the wormhole simulator agrees with store-and-forward on ranking
     informed vs random placements *)
  let m = map_workload (Workloads.jacobi ~n:8 ~iters:2) "mesh:4x4" in
  let tg = m.Mapping.tg in
  let rng = Prelude.Rng.create 5 in
  let rc, rp = Mapper.Baselines.random rng ~n:tg.Taskgraph.n ~procs:16 in
  let proc_of_task = Array.init tg.Taskgraph.n (fun t -> rp.(rc.(t))) in
  let routings, _ = Mapper.Route.mm_route tg m.Mapping.topo ~proc_of_task in
  let rm =
    { Mapping.tg; topo = m.Mapping.topo; cluster_of = rc; proc_of_cluster = rp;
      routings; strategy = "random" }
  in
  let wh x = (Netsim.run ~params:Netsim.wormhole_params x).Netsim.makespan in
  Alcotest.(check bool) "informed wins under wormhole too" true (wh m < wh rm)

let () =
  Alcotest.run "driver"
    [
      ( "dispatch",
        [
          Alcotest.test_case "strategy choices (Fig 3)" `Quick test_dispatch_choices;
          Alcotest.test_case "option flags" `Quick test_dispatch_flags;
          Alcotest.test_case "preview" `Quick test_strategy_preview;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "all workloads x topologies validate" `Slow
            test_all_pairs_validate;
          Alcotest.test_case "oblivious routing validates" `Quick
            test_oblivious_routing_validates;
          Alcotest.test_case "map_source pipeline" `Quick test_map_source_pipeline;
          Alcotest.test_case "map_source errors" `Quick test_map_source_errors;
          Alcotest.test_case "beats random placement" `Quick test_better_than_random;
          Alcotest.test_case "scale stress" `Slow test_stress_scale;
          Alcotest.test_case "wormhole end to end" `Quick test_wormhole_end_to_end;
        ] );
      ( "sched",
        [
          Alcotest.test_case "synchrony sets" `Quick test_synchrony_sets;
          Alcotest.test_case "synchronized no worse" `Quick test_synchronized_no_worse;
          Alcotest.test_case "overlap no worse than barrier" `Quick test_staggered_vs_barrier;
        ] );
    ]
