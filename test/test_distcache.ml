(* The topology-resident distance/route cache: CSR BFS agrees with the
   list-based reference on random graphs and on every parseable
   topology family, route enumeration matches [Routes.shortest_routes]
   including cap semantics, and the hop matrix is built exactly once
   per topology however many consumers query it. *)

module Csr = Oregami_graph.Csr
module Ugraph = Oregami_graph.Ugraph
module Traverse = Oregami_graph.Traverse
module Shortest = Oregami_graph.Shortest
module Topology = Oregami_topology.Topology
module Routes = Oregami_topology.Routes
module Distcache = Oregami_topology.Distcache
module Nn_embed = Oregami_mapper.Nn_embed
module Refine = Oregami_mapper.Refine
module Route = Oregami_mapper.Route
module Taskgraph = Oregami_taskgraph.Taskgraph
module Workloads = Oregami_workloads.Workloads
module Rng = Oregami_prelude.Rng

let t kind = Topology.make kind

let families =
  [
    "line:7"; "ring:8"; "mesh:3x4"; "torus:3x4"; "hypercube:4"; "complete:6";
    "bintree:3"; "binomial:4"; "butterfly:2"; "ccc:3"; "hex:3x4"; "star:4";
  ]

let parse_topo s = t (Result.get_ok (Topology.parse s))

(* flat CSR matrix vs the list-based reference, row by row *)
let check_matrix msg g =
  let n = Ugraph.node_count g in
  let csr = Csr.of_ugraph g in
  let seq = Csr.all_pairs_hops ~parallel:false csr in
  let par = Csr.all_pairs_hops ~parallel:true csr in
  for src = 0 to n - 1 do
    let reference = Traverse.bfs_dist g src in
    let row = Csr.bfs_dist csr src in
    Alcotest.(check (array int)) (Printf.sprintf "%s: bfs_dist src=%d" msg src) reference row;
    for v = 0 to n - 1 do
      Alcotest.(check int)
        (Printf.sprintf "%s: hops[%d,%d]" msg src v)
        reference.(v)
        seq.((src * n) + v);
      Alcotest.(check int)
        (Printf.sprintf "%s: parallel hops[%d,%d]" msg src v)
        reference.(v)
        par.((src * n) + v)
    done
  done

let test_families () =
  List.iter (fun s -> check_matrix s (Topology.graph (parse_topo s))) families

let qcheck_random_graphs =
  QCheck.Test.make ~name:"CSR all-pairs hops = Traverse.bfs_dist on random graphs"
    ~count:100
    QCheck.(pair (int_range 1 40) int)
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = Ugraph.create n in
      for _ = 1 to 3 * n do
        let u = Rng.int rng n and v = Rng.int rng n in
        if u <> v then Ugraph.add_edge g u v
      done;
      let csr = Csr.of_ugraph g in
      let hops = Csr.all_pairs_hops csr in
      let ok = ref true in
      for src = 0 to n - 1 do
        let reference = Traverse.bfs_dist g src in
        for v = 0 to n - 1 do
          if hops.((src * n) + v) <> reference.(v) then ok := false
        done
      done;
      !ok)

let test_distcache_matrix () =
  List.iter
    (fun s ->
      let topo = parse_topo s in
      let dc = Distcache.hops topo in
      let reference = Shortest.all_pairs_hops (Topology.graph topo) in
      let n = Topology.node_count topo in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          Alcotest.(check int)
            (Printf.sprintf "%s: hop %d %d" s u v)
            reference.(u).(v) (Distcache.hop dc u v)
        done
      done)
    families

let routes_testable =
  Alcotest.testable
    (fun fmt rs ->
      Format.fprintf fmt "[%s]"
        (String.concat "; "
           (List.map
              (fun r -> String.concat "-" (List.map string_of_int r.Routes.nodes))
              rs)))
    (fun a b ->
      List.length a = List.length b
      && List.for_all2 (fun x y -> x.Routes.nodes = y.Routes.nodes && x.Routes.links = y.Routes.links) a b)

let test_routes_match () =
  List.iter
    (fun s ->
      let topo = parse_topo s in
      let n = Topology.node_count topo in
      for u = 0 to min (n - 1) 7 do
        for v = 0 to min (n - 1) 7 do
          Alcotest.check routes_testable
            (Printf.sprintf "%s: routes %d->%d" s u v)
            (Routes.shortest_routes topo u v)
            (Distcache.routes topo u v)
        done
      done)
    families

let test_route_cap () =
  (* corner-to-corner on a 4x4 mesh has C(6,3) = 20 shortest routes *)
  let topo = parse_topo "mesh:4x4" in
  let full = Routes.shortest_routes ~cap:64 topo 0 15 in
  Alcotest.(check int) "20 shortest routes" 20 (List.length full);
  let first5 = Distcache.routes ~cap:5 topo 0 15 in
  Alcotest.check routes_testable "cap 5 is a prefix"
    (List.filteri (fun i _ -> i < 5) full)
    first5;
  (* a larger cap after a smaller one gets the longer list *)
  let all = Distcache.routes ~cap:64 topo 0 15 in
  Alcotest.check routes_testable "cap upgrade re-enumerates" full all;
  (* and a later smaller cap gets the prefix again *)
  let first3 = Distcache.routes ~cap:3 topo 0 15 in
  Alcotest.check routes_testable "memoised prefix"
    (List.filteri (fun i _ -> i < 3) full)
    first3

(* Route queries against the list-based reference on every family and
   on degraded views (partitioned ones included, so unreachable pairs
   are covered), at random caps and sample sizes: the full list, the
   stride sample and the oblivious route must all come out as the
   reference builds them. *)
module Faults = Oregami_topology.Faults

let property_families =
  families @ [ "torus:6x6"; "mesh:5x5"; "hypercube:5"; "debruijn:4"; "shuffle:4" ]

let qcheck_routes_reference =
  let show rs =
    String.concat "; "
      (List.map (fun r -> String.concat "-" (List.map string_of_int r.Routes.nodes)) rs)
  in
  QCheck.Test.make ~name:"routes, routes_sampled and deterministic match the reference"
    ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let base = parse_topo (Rng.pick rng (Array.of_list property_families)) in
      let topo =
        if Rng.int rng 2 = 0 then base
        else begin
          let faults =
            Result.get_ok
              (Faults.random rng ~procs:(Rng.int rng 3) ~links:(Rng.int rng 4) base)
          in
          Result.get_ok
            (Topology.degrade base ~dead_procs:faults.Faults.procs
               ~dead_links:faults.Faults.links)
        end
      in
      let n = Topology.node_count topo in
      let u = Rng.int rng n and v = Rng.int rng n in
      let cap = 1 + Rng.int rng 80 and want = Rng.int rng 81 in
      let case =
        Printf.sprintf "%s %d->%d cap=%d want=%d" (Topology.name topo) u v cap want
      in
      let reference = Routes.shortest_routes ~cap topo u v in
      let got = Distcache.routes ~cap topo u v in
      if got <> reference then
        QCheck.Test.fail_reportf "%s: routes [%s], reference [%s]" case (show got)
          (show reference);
      let sampled = Distcache.routes_sampled ~cap ~want topo u v in
      let expected = Routes.sample_evenly ~want reference in
      if sampled <> expected then
        QCheck.Test.fail_reportf "%s: sampled [%s], reference [%s]" case (show sampled)
          (show expected);
      let oblivious =
        match Distcache.deterministic topo u v with
        | r -> Some r
        | exception Invalid_argument _ -> None
      in
      let intact = not (Topology.is_degraded topo) in
      let expected =
        match Topology.kind topo with
        | Topology.Hypercube _ when intact -> Some (Routes.ecube topo u v)
        | (Topology.Mesh _ | Topology.Torus _) when intact ->
          Some (Routes.dimension_order topo u v)
        | _ -> (
          (* the fallback: the first shortest route on the surviving graph *)
          match Routes.shortest_routes ~cap:1 topo u v with r :: _ -> Some r | [] -> None)
      in
      if oblivious <> expected then
        QCheck.Test.fail_reportf "%s: deterministic [%s], reference [%s]" case
          (show (Option.to_list oblivious))
          (show (Option.to_list expected));
      true)

let test_built_once () =
  let topo = parse_topo "mesh:4x4" in
  Alcotest.(check int) "no build before first query" 0 (Distcache.hop_builds topo);
  let tg = Workloads.task_graph_exn (Workloads.nbody ~n:12 ~s:1) in
  let cg = Taskgraph.static_graph tg in
  let pc = Nn_embed.embed cg topo in
  let pc = Refine.improve_embedding cg topo pc in
  let (_ : int) = Nn_embed.weighted_hops cg topo pc in
  let proc_of_task = Array.init tg.Taskgraph.n (fun i -> pc.(i)) in
  let (_ : Oregami_mapper.Mapping.phase_routing list * Route.stats) =
    Route.mm_route tg topo ~proc_of_task
  in
  let (_ : Distcache.t) = Distcache.hops topo in
  Alcotest.(check int) "one build across embed+refine+objective+route" 1
    (Distcache.hop_builds topo);
  (* a different topology value gets its own cache *)
  let other = parse_topo "mesh:4x4" in
  Alcotest.(check int) "fresh topology, fresh cache" 0 (Distcache.hop_builds other)

let test_parallel_threshold () =
  let saved = !Distcache.parallel_threshold in
  Fun.protect
    ~finally:(fun () -> Distcache.parallel_threshold := saved)
    (fun () ->
      Distcache.parallel_threshold := 4;
      let topo = parse_topo "torus:3x4" in
      let dc = Distcache.hops topo in
      let reference = Shortest.all_pairs_hops (Topology.graph topo) in
      let n = Topology.node_count topo in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          Alcotest.(check int)
            (Printf.sprintf "parallel build hop %d %d" u v)
            reference.(u).(v) (Distcache.hop dc u v)
        done
      done)

let test_neighbor_order () =
  (* O(1) insertion must still present neighbours in first-insertion
     order: NN-Embed's seed step and the BFS tie-breaks depend on it *)
  let g = Ugraph.create 5 in
  Ugraph.add_edge g 0 3;
  Ugraph.add_edge g 0 1;
  Ugraph.add_edge g 0 4;
  Ugraph.add_edge ~w:2 g 0 3;
  Alcotest.(check (list (pair int int)))
    "first-insertion order, merged weights"
    [ (3, 3); (1, 1); (4, 1) ]
    (Ugraph.neighbors g 0)

let () =
  Alcotest.run "distcache"
    [
      ( "csr",
        [
          Alcotest.test_case "families" `Quick test_families;
          QCheck_alcotest.to_alcotest qcheck_random_graphs;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hop matrix" `Quick test_distcache_matrix;
          Alcotest.test_case "built once" `Quick test_built_once;
          Alcotest.test_case "parallel threshold" `Quick test_parallel_threshold;
        ] );
      ( "routes",
        [
          Alcotest.test_case "match shortest_routes" `Quick test_routes_match;
          Alcotest.test_case "cap semantics" `Quick test_route_cap;
          QCheck_alcotest.to_alcotest qcheck_routes_reference;
        ] );
      ( "ugraph",
        [ Alcotest.test_case "neighbor order" `Quick test_neighbor_order ] );
    ]
