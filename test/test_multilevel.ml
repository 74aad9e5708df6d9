(* The multilevel coarsen -> map -> refine tier.

   Coarsening must conserve what the mapper optimizes: total node
   weight at every level (load balance), and total edge traffic up to
   the explicitly-accounted internalized volume (communication).
   Projection through the hierarchy must land every task on an alive
   processor (Mapping.validate), identically for identical seeds, and
   the anytime contract must hold at tiny budgets. *)

open Oregami
module Coarsen = Oregami.Coarsen
module Synth = Oregami.Synth
module Rng = Prelude.Rng

let topo s = Topology.make (Result.get_ok (Topology.parse s))

let hierarchy ?(target = 64) family n seed =
  let tg = Synth.generate family ~n ~seed in
  let node_weight = Array.make n 1 in
  let finest = Coarsen.of_ugraph ~node_weight (Taskgraph.static_graph tg) in
  Coarsen.coarsen ~rng:(Rng.create 7) ~target finest

let instances =
  [
    (Synth.Grid, 3000, 1); (Synth.Ring, 2000, 1); (Synth.Tree, 2500, 1);
    (Synth.Rmat, 2000, 3);
  ]

(* --- coarsening invariants ---------------------------------------- *)

let test_node_weight_preserved () =
  List.iter
    (fun (family, n, seed) ->
      let h = hierarchy family n seed in
      let w0 = Coarsen.total_node_weight h.Coarsen.levels.(0) in
      Alcotest.(check int) "finest weight is the task count" n w0;
      Array.iter
        (fun lv ->
          Alcotest.(check int) "level conserves node weight" w0
            (Coarsen.total_node_weight lv))
        h.Coarsen.levels)
    instances

let test_edge_traffic_accounted () =
  List.iter
    (fun (family, n, seed) ->
      let h = hierarchy family n seed in
      let levels = h.Coarsen.levels in
      Alcotest.(check int) "finest has no internalized traffic" 0
        levels.(0).Coarsen.lv_internalized;
      for i = 0 to Array.length levels - 2 do
        Alcotest.(check int)
          (Printf.sprintf "level %d traffic = coarser traffic + internalized" i)
          levels.(i).Coarsen.lv_edge_total
          (levels.(i + 1).Coarsen.lv_edge_total
          + levels.(i + 1).Coarsen.lv_internalized)
      done)
    instances

let test_levels_shrink_to_target () =
  List.iter
    (fun (family, n, seed) ->
      let h = hierarchy ~target:64 family n seed in
      let levels = h.Coarsen.levels in
      Alcotest.(check bool) "not truncated" false h.Coarsen.truncated;
      let nl = Array.length levels in
      for i = 1 to nl - 1 do
        Alcotest.(check bool) "levels strictly shrink" true
          (levels.(i).Coarsen.lv_n < levels.(i - 1).Coarsen.lv_n)
      done;
      let coarsest = levels.(nl - 1).Coarsen.lv_n in
      Alcotest.(check bool) "coarsest within the target" true
        (coarsest > 0 && coarsest <= 64))
    instances

let test_projection_composes () =
  List.iter
    (fun (family, n, seed) ->
      let h = hierarchy family n seed in
      let levels = h.Coarsen.levels in
      let nl = Array.length levels in
      let k = levels.(nl - 1).Coarsen.lv_n in
      (* project the coarsest identity through the whole hierarchy:
         every fine node must land on a coarse id, and the preimages
         must partition the fine nodes *)
      let fine = Coarsen.project h (Array.init k (fun c -> c)) in
      Alcotest.(check int) "one value per task" n (Array.length fine);
      let seen = Array.make k 0 in
      Array.iter
        (fun c ->
          Alcotest.(check bool) "coarse id in range" true (c >= 0 && c < k);
          seen.(c) <- seen.(c) + 1)
        fine;
      Array.iteri
        (fun c count ->
          Alcotest.(check bool)
            (Printf.sprintf "coarse node %d is non-empty" c)
            true (count > 0))
        seen)
    instances

(* --- the full tier through the driver ----------------------------- *)

let options = { Driver.default_options with Driver.only = [ "multilevel" ] }

let test_mapping_validates () =
  List.iter
    (fun (family, n, seed) ->
      let tg = Synth.generate family ~n ~seed in
      match Driver.map_taskgraph ~options tg (topo "torus:8x8") with
      | Error e -> Alcotest.failf "multilevel failed on %d tasks: %s" n e
      | Ok m -> begin
        Alcotest.(check string) "strategy label" "multilevel" m.Mapping.strategy;
        match Mapping.validate m with
        | Ok () -> ()
        | Error e -> Alcotest.failf "invalid mapping: %s" e
      end)
    instances

let test_declines_small_graphs () =
  let tg = Synth.generate Synth.Grid ~n:100 ~seed:1 in
  (match Driver.map_taskgraph tg (topo "torus:4x4") with
  | Error e -> Alcotest.failf "dispatch failed on a small graph: %s" e
  | Ok m ->
    Alcotest.(check bool) "multilevel does not take small graphs" true
      (m.Mapping.strategy <> "multilevel"));
  match Driver.map_taskgraph ~options tg (topo "torus:4x4") with
  | Error e -> Alcotest.failf "--only multilevel forcing failed: %s" e
  | Ok m ->
    Alcotest.(check string) "forced by --only" "multilevel" m.Mapping.strategy

(* the mirror gate: past the flat sweet spot the quadratic-ish flat
   contractions stand aside and the default dispatch lands on the
   multilevel tier, unless a flat strategy is forced by name *)
let test_flat_stands_aside_at_scale () =
  let tg = Synth.generate Synth.Grid ~n:3000 ~seed:1 in
  (match Driver.map_taskgraph tg (topo "torus:8x8") with
  | Error e -> Alcotest.failf "default dispatch failed at 3000 tasks: %s" e
  | Ok m ->
    Alcotest.(check string) "default dispatch picks multilevel" "multilevel"
      m.Mapping.strategy);
  match
    Driver.map_taskgraph
      ~options:{ Driver.default_options with Driver.only = [ "mwm" ] }
      tg (topo "torus:8x8")
  with
  | Error e -> Alcotest.failf "--only mwm forcing failed: %s" e
  | Ok m ->
    Alcotest.(check string) "forced by --only" "mwm+nn" m.Mapping.strategy

let test_deterministic () =
  let run () =
    let tg = Synth.generate Synth.Rmat ~n:3000 ~seed:5 in
    Driver.report_taskgraph ~options tg (topo "torus:8x8")
  in
  match (run (), run ()) with
  | (Ok m1, s1), (Ok m2, s2) ->
    Alcotest.(check (array int)) "same seed, same assignment"
      (Mapping.assignment m1) (Mapping.assignment m2);
    Alcotest.(check (list (pair string int))) "same counters"
      (Stats.counters s1) (Stats.counters s2)
  | (Error e, _), _ | _, (Error e, _) -> Alcotest.failf "run failed: %s" e

let test_tiny_fuel_truncates () =
  let tg = Synth.generate Synth.Grid ~n:4000 ~seed:1 in
  let options = { options with Driver.fuel = Some 500; Driver.fallback = true } in
  let ctx = Ctx.of_taskgraph ~options tg (topo "torus:8x8") in
  match Driver.run ctx with
  | Error e -> Alcotest.failf "budgeted multilevel run failed: %s" e
  | Ok (m, deg) ->
    (match Mapping.validate m with
    | Ok () -> ()
    | Error e -> Alcotest.failf "invalid budgeted mapping: %s" e);
    Alcotest.(check bool) "500 fuel units cannot be a full run" true
      (deg <> Stats.Full);
    Alcotest.(check bool) "budget tripped" true (Budget.exhausted ctx.Ctx.budget)

(* --- the synthetic generator specs -------------------------------- *)

let test_synth_specs () =
  Alcotest.(check bool) "synth: prefix" true (Synth.is_spec "synth:grid:10");
  Alcotest.(check bool) "not a spec" false (Synth.is_spec "nbody");
  (match Synth.parse "synth:rmat:500:9" with
  | Ok (Synth.Rmat, 500, 9) -> ()
  | Ok _ -> Alcotest.fail "parsed the wrong instance"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Synth.parse "synth:grid:0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a zero-task instance");
  (match Synth.parse "synth:mobius:8" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an unknown family");
  (* the compiler's task cap holds for synthetic graphs too, so a
     request line cannot ask a worker for an unbounded graph *)
  let cap = Larcs.Compile.max_tasks in
  (match Synth.parse (Printf.sprintf "synth:ring:%d" cap) with
  | Ok (Synth.Ring, n, 1) -> Alcotest.(check int) "the cap itself is allowed" cap n
  | Ok _ | Error _ -> Alcotest.fail "refused a graph at the cap");
  (match Synth.parse (Printf.sprintf "synth:ring:%d" (cap + 1)) with
  | Error e ->
    Alcotest.(check string) "over the cap, by name"
      (Printf.sprintf "bad synthetic spec \"synth:ring:%d\": task count %d exceeds the cap %d"
         (cap + 1) (cap + 1) cap)
      e
  | Ok _ -> Alcotest.fail "accepted a graph over the cap");
  match Synth.build "synth:tree:777" with
  | Error e -> Alcotest.failf "build failed: %s" e
  | Ok tg -> Alcotest.(check int) "task count" 777 tg.Taskgraph.n

let () =
  Alcotest.run "multilevel"
    [
      ( "coarsen",
        [
          Alcotest.test_case "node weight preserved" `Quick
            test_node_weight_preserved;
          Alcotest.test_case "edge traffic accounted" `Quick
            test_edge_traffic_accounted;
          Alcotest.test_case "levels shrink to target" `Quick
            test_levels_shrink_to_target;
          Alcotest.test_case "projection composes" `Quick
            test_projection_composes;
        ] );
      ( "tier",
        [
          Alcotest.test_case "mapping validates" `Quick test_mapping_validates;
          Alcotest.test_case "declines small graphs" `Quick
            test_declines_small_graphs;
          Alcotest.test_case "flat stands aside at scale" `Quick
            test_flat_stands_aside_at_scale;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "tiny fuel truncates" `Quick
            test_tiny_fuel_truncates;
        ] );
      ( "synth",
        [ Alcotest.test_case "spec parsing" `Quick test_synth_specs ] );
    ]
