(* Tests for the MAPPER algorithms: MWM-Contract (with the paper's
   Fig 5 scenario and the |V| <= 2P optimality claim), group-theoretic
   contraction (Fig 4), canned mappings, NN-Embed, MM-Route (Fig 6),
   the binomial-mesh construction, and the Stone baseline. *)

module Ugraph = Oregami_graph.Ugraph
module Digraph = Oregami_graph.Digraph
module Topology = Oregami_topology.Topology
module Routes = Oregami_topology.Routes
module Gray = Oregami_topology.Gray
module Taskgraph = Oregami_taskgraph.Taskgraph
module Phase_expr = Oregami_taskgraph.Phase_expr
module Mapping = Oregami_mapper.Mapping
module Mwm = Oregami_mapper.Mwm_contract
module Group_contract = Oregami_mapper.Group_contract
module Canned = Oregami_mapper.Canned
module Nn_embed = Oregami_mapper.Nn_embed
module Route = Oregami_mapper.Route
module Stone = Oregami_mapper.Stone
module Baselines = Oregami_mapper.Baselines
module Binomial_mesh = Oregami_mapper.Binomial_mesh
module Brute = Oregami_matching.Brute
module Rng = Oregami_prelude.Rng
module Workloads = Oregami_workloads.Workloads

(* ------------------------------------------------------------------ *)
(* MWM-Contract                                                        *)

(* A 12-task graph shaped like the paper's Fig 5 walkthrough: six heavy
   edges that the greedy phase merges into 2-task clusters, a weight-15
   edge whose merge would exceed B/2 = 2 tasks, and light edges for the
   matching phase. *)
let fig5_like_graph () =
  Ugraph.of_edges 12
    [
      (0, 1, 20); (2, 3, 18); (1, 2, 15);  (* 15-edge must NOT merge *)
      (4, 5, 16); (6, 7, 12); (8, 9, 10); (10, 11, 8);
      (3, 4, 2); (5, 6, 3); (7, 8, 1); (9, 10, 2); (11, 0, 1);
    ]

let test_mwm_fig5 () =
  let g = fig5_like_graph () in
  match Mwm.contract ~b:4 g ~procs:3 with
  | Error m -> Alcotest.failf "contract: %s" m
  | Ok r ->
    Alcotest.(check int) "three clusters" 3 (Array.length r.Mwm.clusters);
    Array.iter
      (fun members ->
        Alcotest.(check bool) "capacity 4" true (List.length members <= 4))
      r.Mwm.clusters;
    Alcotest.(check int) "six greedy merges" 6 r.Mwm.greedy_merges;
    Alcotest.(check int) "three matched pairs" 3 r.Mwm.matched_pairs;
    (* the weight-15 edge joins tasks 1 and 2: greedy must keep them
       apart (clusters {0,1} and {2,3} have 2 tasks each = B/2), but
       the matching phase may then pair those clusters *)
    Alcotest.(check int) "ipc equals recomputed" r.Mwm.ipc
      (Mapping.total_ipc g r.Mwm.cluster_of);
    (* IPC must match the exhaustive optimum for this instance *)
    let best, _ = Brute.best_partition ~n:12 ~parts:3 ~cap:4 (Ugraph.edges g) in
    Alcotest.(check int) "optimal on the Fig 5 instance" best r.Mwm.ipc

let test_mwm_optimal_small () =
  (* paper claim: optimal symmetric contraction when |V| <= 2P *)
  let rng = Rng.create 31 in
  for _ = 0 to 60 do
    let procs = 2 + Rng.int rng 3 in
    let n = procs + 1 + Rng.int rng procs in
    (* n in (procs, 2*procs] *)
    let g = Ugraph.create n in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Rng.int rng 3 > 0 then Ugraph.add_edge ~w:(1 + Rng.int rng 9) g u v
      done
    done;
    match Mwm.contract ~b:2 g ~procs with
    | Error m -> Alcotest.failf "contract failed: %s" m
    | Ok r ->
      let best, _ = Brute.best_partition ~n ~parts:procs ~cap:2 (Ugraph.edges g) in
      if r.Mwm.ipc <> best then
        Alcotest.failf "n=%d p=%d: mwm ipc %d <> optimal %d" n procs r.Mwm.ipc best
  done

let test_mwm_identity_when_enough_procs () =
  let g = Ugraph.of_edges 4 [ (0, 1, 5); (2, 3, 5) ] in
  match Mwm.contract g ~procs:8 with
  | Error m -> Alcotest.failf "contract: %s" m
  | Ok r ->
    Alcotest.(check int) "no merging needed" 4 (Array.length r.Mwm.clusters);
    Alcotest.(check int) "ipc untouched" 10 r.Mwm.ipc

let test_mwm_respects_capacity () =
  let rng = Rng.create 77 in
  for _ = 0 to 40 do
    let n = 6 + Rng.int rng 20 in
    let procs = 2 + Rng.int rng 4 in
    let b = max 2 ((n + procs - 1) / procs) in
    let b = b + (b mod 2) in
    let g = Ugraph.create n in
    for _ = 0 to 3 * n do
      let u = Rng.int rng n and v = Rng.int rng n in
      if u <> v then Ugraph.add_edge ~w:(1 + Rng.int rng 20) g u v
    done;
    match Mwm.contract ~b g ~procs with
    | Error m -> Alcotest.failf "n=%d p=%d b=%d: %s" n procs b m
    | Ok r ->
      Alcotest.(check bool) "cluster count" true (Array.length r.Mwm.clusters <= procs);
      Array.iter
        (fun members ->
          if List.length members > b then
            Alcotest.failf "capacity %d violated: %d tasks" b (List.length members))
        r.Mwm.clusters;
      (* partition is exact *)
      let all = Array.to_list r.Mwm.clusters |> List.concat |> List.sort compare in
      Alcotest.(check (list int)) "partition" (List.init n (fun i -> i)) all
  done

let test_mwm_infeasible () =
  let g = Ugraph.complete 10 in
  match Mwm.contract ~b:2 g ~procs:3 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "infeasible instance accepted"

(* ------------------------------------------------------------------ *)
(* Group-theoretic contraction                                         *)

let voting_tg () = Workloads.task_graph_exn (Workloads.voting ~k:3)

let test_group_contract_fig4 () =
  let tg = voting_tg () in
  match Group_contract.contract tg ~procs:4 with
  | Error m -> Alcotest.failf "group contract: %s" m
  | Ok r ->
    Alcotest.(check int) "four clusters" 4 (Array.length r.Group_contract.clusters);
    Alcotest.(check (list (list int))) "the paper's Fig 4c clusters"
      [ [ 0; 4 ]; [ 1; 5 ]; [ 2; 6 ]; [ 3; 7 ] ]
      (Array.to_list r.Group_contract.clusters |> List.sort compare);
    Alcotest.(check bool) "subgroup is normal" true r.Group_contract.normal;
    (* 2 messages internalized per cluster (from comm3) *)
    Alcotest.(check int) "internalized messages" 2 r.Group_contract.internalized

let test_group_contract_balance () =
  let tg = voting_tg () in
  List.iter
    (fun procs ->
      match Group_contract.contract tg ~procs with
      | Error m -> Alcotest.failf "procs=%d: %s" procs m
      | Ok r ->
        let sizes =
          Array.to_list r.Group_contract.clusters |> List.map List.length
          |> List.sort_uniq compare
        in
        Alcotest.(check (list int))
          (Printf.sprintf "uniform clusters for %d procs" procs)
          [ 8 / procs ] sizes)
    [ 2; 4; 8 ]

let test_group_contract_rejects () =
  (* 15-body: 15 tasks do not divide over 4 processors *)
  let tg = Workloads.task_graph_exn (Workloads.nbody ~n:15 ~s:1) in
  (match Group_contract.contract tg ~procs:4 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected indivisible rejection");
  (* non-bijective phases *)
  let tg2 = Workloads.task_graph_exn (Workloads.jacobi ~n:4 ~iters:1) in
  match Group_contract.contract tg2 ~procs:4 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected bijection rejection"

let test_balanced_contraction_exists () =
  Alcotest.(check bool) "8/4 = 2 prime" true
    (Group_contract.balanced_contraction_exists ~n:8 ~procs:4);
  Alcotest.(check bool) "24/2 = 12 not prime power" false
    (Group_contract.balanced_contraction_exists ~n:24 ~procs:2);
  Alcotest.(check bool) "9/3 = 3 prime" true
    (Group_contract.balanced_contraction_exists ~n:9 ~procs:3);
  Alcotest.(check bool) "not dividing" false
    (Group_contract.balanced_contraction_exists ~n:10 ~procs:4)

(* ------------------------------------------------------------------ *)
(* canned mappings                                                     *)

let edge_dilations topo cluster_of proc_of_cluster edges =
  let hops = Oregami_graph.Shortest.all_pairs_hops (Topology.graph topo) in
  List.filter_map
    (fun (u, v, _) ->
      let pu = proc_of_cluster.(cluster_of.(u)) and pv = proc_of_cluster.(cluster_of.(v)) in
      if pu = pv then None else Some hops.(pu).(pv))
    edges

let test_canned_ring_to_hypercube () =
  let topo = Topology.make (Topology.Hypercube 3) in
  match Canned.lookup ~family:"ring" ~n:16 topo with
  | None -> Alcotest.fail "expected canned entry"
  | Some c ->
    (* consecutive blocks of 2, Gray-coded: every ring edge has
       dilation <= 1 *)
    let edges = List.init 16 (fun i -> (i, (i + 1) mod 16, 1)) in
    let ds = edge_dilations topo c.Canned.cluster_of c.Canned.proc_of_cluster edges in
    List.iter (fun d -> Alcotest.(check int) "dilation 1" 1 d) ds

let test_canned_hypercube_subcubes () =
  let topo = Topology.make (Topology.Hypercube 3) in
  match Canned.lookup ~family:"hypercube" ~n:32 topo with
  | None -> Alcotest.fail "expected canned entry"
  | Some c ->
    let edges =
      List.concat_map
        (fun u -> List.init 5 (fun b -> (u, u lxor (1 lsl b), 1)))
        (List.init 32 (fun i -> i))
      |> List.filter (fun (u, v, _) -> u < v)
    in
    let ds = edge_dilations topo c.Canned.cluster_of c.Canned.proc_of_cluster edges in
    List.iter (fun d -> Alcotest.(check bool) "dilation <= 1" true (d <= 1)) ds

let test_canned_binomial_to_hypercube () =
  let topo = Topology.make (Topology.Hypercube 4) in
  match Canned.lookup ~family:"binomial" ~n:16 topo with
  | None -> Alcotest.fail "expected canned entry"
  | Some c ->
    let edges = List.init 15 (fun i -> (i + 1, (i + 1) land i, 1)) in
    let ds = edge_dilations topo c.Canned.cluster_of c.Canned.proc_of_cluster edges in
    List.iter (fun d -> Alcotest.(check int) "dilation exactly 1" 1 d) ds

let test_canned_bintree_to_hypercube () =
  let topo = Topology.make (Topology.Hypercube 4) in
  match Canned.lookup ~family:"bintree" ~n:15 topo with
  | None -> Alcotest.fail "expected canned entry"
  | Some c ->
    let edges =
      List.init 15 (fun v -> v)
      |> List.concat_map (fun v ->
             List.filter (fun (_, c, _) -> c < 15) [ (v, (2 * v) + 1, 1); (v, (2 * v) + 2, 1) ])
    in
    let ds = edge_dilations topo c.Canned.cluster_of c.Canned.proc_of_cluster edges in
    Alcotest.(check bool) "dilation <= 2 (inorder embedding)" true
      (List.for_all (fun d -> d <= 2) ds)

let test_canned_mesh_to_mesh () =
  let topo = Topology.make (Topology.Mesh (2, 4)) in
  match Canned.lookup ~dims:[ 4; 8 ] ~family:"mesh" ~n:32 topo with
  | None -> Alcotest.fail "expected canned tiling"
  | Some c ->
    (* 2x2 tiles; all mesh edges dilation <= 1 *)
    let edges = ref [] in
    for i = 0 to 3 do
      for j = 0 to 7 do
        if j < 7 then edges := ((i * 8) + j, (i * 8) + j + 1, 1) :: !edges;
        if i < 3 then edges := ((i * 8) + j, ((i + 1) * 8) + j, 1) :: !edges
      done
    done;
    let ds = edge_dilations topo c.Canned.cluster_of c.Canned.proc_of_cluster !edges in
    List.iter (fun d -> Alcotest.(check int) "dilation 1" 1 d) ds;
    (* perfectly balanced tiles *)
    let counts = Array.make 8 0 in
    Array.iter (fun cl -> counts.(cl) <- counts.(cl) + 1) c.Canned.cluster_of;
    Array.iter (fun k -> Alcotest.(check int) "4 tasks per tile" 4 k) counts

let test_canned_mesh_to_hypercube () =
  let topo = Topology.make (Topology.Hypercube 4) in
  match Canned.lookup ~dims:[ 4; 4 ] ~family:"mesh" ~n:16 topo with
  | None -> Alcotest.fail "expected canned entry"
  | Some c ->
    let edges = ref [] in
    for i = 0 to 3 do
      for j = 0 to 3 do
        if j < 3 then edges := ((i * 4) + j, (i * 4) + j + 1, 1) :: !edges;
        if i < 3 then edges := ((i * 4) + j, ((i + 1) * 4) + j, 1) :: !edges
      done
    done;
    let ds = edge_dilations topo c.Canned.cluster_of c.Canned.proc_of_cluster !edges in
    List.iter (fun d -> Alcotest.(check int) "dilation 1 via Gray" 1 d) ds

let test_canned_declines () =
  let ccc = Topology.make (Topology.Cube_connected_cycles 3) in
  Alcotest.(check bool) "no entry for star task graph on ccc" true
    (Canned.lookup ~family:"hypercube" ~n:16 ccc = None);
  Alcotest.(check bool) "unknown family" true
    (Canned.lookup ~family:"nosuch" ~n:8 (Topology.make (Topology.Ring 4)) = None)

(* ------------------------------------------------------------------ *)
(* binomial mesh construction                                          *)

let test_binomial_mesh_valid () =
  List.iter
    (fun k ->
      let l = Binomial_mesh.embed k in
      Alcotest.(check bool) (Printf.sprintf "k=%d valid" k) true (Binomial_mesh.check l))
    [ 0; 1; 2; 3; 5; 8; 10 ]

let test_binomial_mesh_dilation_bound () =
  (* the paper's <= 1.2 claim, checked at the sizes we can afford *)
  List.iter
    (fun k ->
      let avg = Binomial_mesh.average_dilation k in
      if avg > 1.2 then Alcotest.failf "k=%d: average dilation %.4f > 1.2" k avg)
    [ 1; 2; 4; 6; 8; 10; 12; 14; 16 ]

let test_binomial_mesh_small_perfect () =
  (* B_4 embeds in the 4x4 mesh with every edge at dilation 1 *)
  let l = Binomial_mesh.embed 4 in
  Alcotest.(check int) "total dilation = edges" 15 l.Binomial_mesh.total_dilation

(* ------------------------------------------------------------------ *)
(* NN-Embed                                                            *)

let test_nn_embed_injective () =
  let rng = Rng.create 5 in
  List.iter
    (fun kind ->
      let topo = Topology.make kind in
      let k = Topology.node_count topo in
      let cg = Ugraph.create k in
      for _ = 0 to 2 * k do
        let u = Rng.int rng k and v = Rng.int rng k in
        if u <> v then Ugraph.add_edge ~w:(1 + Rng.int rng 9) cg u v
      done;
      let em = Nn_embed.embed cg topo in
      let used = Array.make k false in
      Array.iter
        (fun p ->
          Alcotest.(check bool) "in range" true (p >= 0 && p < k);
          if used.(p) then Alcotest.fail "embedding not injective";
          used.(p) <- true)
        em)
    [ Topology.Hypercube 3; Topology.Mesh (3, 3); Topology.Ring 7 ]

let test_nn_embed_heaviest_adjacent () =
  let topo = Topology.make (Topology.Mesh (3, 3)) in
  let cg = Ugraph.of_edges 4 [ (0, 1, 100); (2, 3, 1) ] in
  let em = Nn_embed.embed cg topo in
  let hops = Oregami_graph.Shortest.all_pairs_hops (Topology.graph topo) in
  Alcotest.(check int) "heaviest pair adjacent" 1 hops.(em.(0)).(em.(1))

let test_nn_embed_beats_bad_order () =
  (* a ring cluster graph on a ring topology: NN-Embed should do at
     least as well as a random placement *)
  let k = 8 in
  let cg = Ugraph.create k in
  for i = 0 to k - 1 do
    Ugraph.add_edge ~w:10 cg i ((i + 1) mod k)
  done;
  let topo = Topology.make (Topology.Ring k) in
  let em = Nn_embed.embed cg topo in
  let cost = Nn_embed.weighted_hops cg topo em in
  let rng = Rng.create 1 in
  let rand = Array.init k (fun i -> i) in
  Rng.shuffle rng rand;
  let rand_cost = Nn_embed.weighted_hops cg topo rand in
  Alcotest.(check bool) "at least as good as random" true (cost <= rand_cost)

(* ------------------------------------------------------------------ *)
(* MM-Route (Fig 6)                                                    *)

let nbody15_mapping () =
  let tg = Workloads.task_graph_exn (Workloads.nbody ~n:15 ~s:1) in
  let topo = Topology.make (Topology.Hypercube 3) in
  (* the paper's Fig 6 embedding: tasks 0..14 in blocks of 2 on Gray-
     coded processors (task 2i and 2i+1 on the i-th Gray processor) *)
  let cluster_of = Array.init 15 (fun t -> t / 2) in
  let proc_of_cluster = Array.init 8 (fun c -> Gray.rank_in_cube 3 c) in
  (tg, topo, cluster_of, proc_of_cluster)

let test_mm_route_valid () =
  let tg, topo, cluster_of, proc_of_cluster = nbody15_mapping () in
  let proc_of_task = Array.init 15 (fun t -> proc_of_cluster.(cluster_of.(t))) in
  let routings, stats = Route.mm_route tg topo ~proc_of_task in
  let m = { Mapping.tg; topo; cluster_of; proc_of_cluster; routings; strategy = "test" } in
  (match Mapping.validate m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid mapping: %s" e);
  Alcotest.(check int) "stats cover both phases" 2 (List.length stats.Route.phases)

(* the routed edges of each phase must be the task graph's edges
   exactly: one dropped, one routed twice, or one with the wrong
   volume is refused *)
let test_validate_edge_set () =
  let tg, topo, cluster_of, proc_of_cluster = nbody15_mapping () in
  let proc_of_task = Array.init 15 (fun t -> proc_of_cluster.(cluster_of.(t))) in
  let routings, _ = Route.mm_route tg topo ~proc_of_task in
  let edit f =
    let routings =
      match routings with
      | pr :: rest -> { pr with Mapping.pr_edges = f pr.Mapping.pr_edges } :: rest
      | [] -> Alcotest.fail "no phases routed"
    in
    Mapping.validate
      { Mapping.tg; topo; cluster_of; proc_of_cluster; routings; strategy = "test" }
  in
  let refused what f =
    match edit f with
    | Error e ->
      Alcotest.(check bool) (what ^ ": " ^ e) true
        (String.length e >= 5 && String.sub e 0 5 = "phase")
    | Ok () -> Alcotest.failf "%s: accepted" what
  in
  Alcotest.(check bool) "untouched validates" true (edit Fun.id = Ok ());
  refused "dropped edge" List.tl;
  refused "edge routed twice" (fun es -> List.hd es :: es);
  refused "wrong volume" (function
    | re :: rest -> { re with Mapping.re_volume = re.Mapping.re_volume + 1 } :: rest
    | [] -> []);
  refused "edge swapped for a self-loop" (function
    | re :: rest -> { re with Mapping.re_dst = re.Mapping.re_src } :: rest
    | [] -> [])

let phase_max_contention topo routings phase =
  let counts = Array.make (Topology.link_count topo) 0 in
  let pr = List.find (fun pr -> pr.Mapping.pr_phase = phase) routings in
  List.iter
    (fun re ->
      List.iter (fun l -> counts.(l) <- counts.(l) + 1) re.Mapping.re_route.Routes.links)
    pr.Mapping.pr_edges;
  Array.fold_left max 0 counts

let test_mm_route_spreads_chordal () =
  let tg, topo, cluster_of, proc_of_cluster = nbody15_mapping () in
  let proc_of_task = Array.init 15 (fun t -> proc_of_cluster.(cluster_of.(t))) in
  let mm, _ = Route.mm_route tg topo ~proc_of_task in
  let ob = Route.deterministic_route tg topo ~proc_of_task in
  let mm_c = phase_max_contention topo mm "chordal" in
  let ob_c = phase_max_contention topo ob "chordal" in
  Alcotest.(check bool) "MM-Route no worse than e-cube" true (mm_c <= ob_c);
  (* 15 messages x ~2 hops over 12 links: the volume bound alone forces
     max contention >= 3; MM-Route must stay close to it *)
  Alcotest.(check bool) "low contention" true (mm_c <= 4)

let test_mm_route_colocated_empty () =
  let tg = Workloads.task_graph_exn (Workloads.voting ~k:2) in
  let topo = Topology.make (Topology.Hypercube 1) in
  let proc_of_task = [| 0; 0; 1; 1 |] in
  let routings, _ = Route.mm_route tg topo ~proc_of_task in
  List.iter
    (fun pr ->
      List.iter
        (fun re ->
          let same = proc_of_task.(re.Mapping.re_src) = proc_of_task.(re.Mapping.re_dst) in
          Alcotest.(check bool) "local iff empty" same (re.Mapping.re_route.Routes.links = []))
        pr.Mapping.pr_edges)
    routings

let test_mm_route_all_topologies () =
  let tg = Workloads.task_graph_exn (Workloads.fft ~d:3) in
  List.iter
    (fun kind ->
      let topo = Topology.make kind in
      let procs = Topology.node_count topo in
      let proc_of_task = Array.init 8 (fun t -> t mod procs) in
      let routings, _ = Route.mm_route tg topo ~proc_of_task in
      List.iter
        (fun pr ->
          List.iter
            (fun re ->
              let pu = proc_of_task.(re.Mapping.re_src)
              and pv = proc_of_task.(re.Mapping.re_dst) in
              if pu <> pv then begin
                Alcotest.(check int) "route starts at sender" pu
                  (List.hd re.Mapping.re_route.Routes.nodes);
                Alcotest.(check int) "route ends at receiver" pv
                  (List.nth re.Mapping.re_route.Routes.nodes
                     (List.length re.Mapping.re_route.Routes.nodes - 1))
              end)
            pr.Mapping.pr_edges)
        routings)
    [ Topology.Ring 5; Topology.Mesh (2, 3); Topology.Butterfly 2;
      Topology.Cube_connected_cycles 3; Topology.Binary_tree 2 ]

(* ------------------------------------------------------------------ *)
(* Stone baseline                                                      *)

let test_stone_optimal_two_proc () =
  let rng = Rng.create 9 in
  for _ = 0 to 40 do
    let n = 2 + Rng.int rng 7 in
    let comm = Ugraph.create n in
    for _ = 0 to 2 * n do
      let u = Rng.int rng n and v = Rng.int rng n in
      if u <> v then Ugraph.add_edge ~w:(1 + Rng.int rng 9) comm u v
    done;
    let cost_a = Array.init n (fun _ -> Rng.int rng 10) in
    let cost_b = Array.init n (fun _ -> Rng.int rng 10) in
    let _, total = Stone.two_processor ~cost_a ~cost_b ~comm in
    (* brute force over all assignments *)
    let best = ref max_int in
    for mask = 0 to (1 lsl n) - 1 do
      let cost = ref 0 in
      for t = 0 to n - 1 do
        cost := !cost + if mask land (1 lsl t) <> 0 then cost_b.(t) else cost_a.(t)
      done;
      List.iter
        (fun (u, v, w) ->
          let su = mask land (1 lsl u) <> 0 and sv = mask land (1 lsl v) <> 0 in
          if su <> sv then cost := !cost + w)
        (Ugraph.edges comm);
      best := min !best !cost
    done;
    Alcotest.(check int) "min cut equals brute force" !best total
  done

let test_stone_assignment_consistent () =
  let comm = Ugraph.of_edges 4 [ (0, 1, 10); (2, 3, 10); (1, 2, 1) ] in
  let cost_a = [| 0; 0; 100; 100 |] and cost_b = [| 100; 100; 0; 0 |] in
  let side, total = Stone.two_processor ~cost_a ~cost_b ~comm in
  Alcotest.(check (list int)) "natural split" [ 0; 0; 1; 1 ] (Array.to_list side);
  Alcotest.(check int) "only the light edge cut" 1 total

let test_stone_bisection () =
  let comm = Ugraph.create 8 in
  for i = 0 to 7 do
    Ugraph.add_edge ~w:5 comm i ((i + 1) mod 8)
  done;
  let cost = Array.make 8 1 in
  let a = Stone.recursive_bisection ~procs:4 ~cost ~comm () in
  Alcotest.(check int) "uses 8 tasks" 8 (Array.length a);
  Array.iter (fun p -> Alcotest.(check bool) "proc in range" true (p >= 0 && p < 4)) a

(* ------------------------------------------------------------------ *)
(* baselines                                                            *)

let test_baselines_balanced () =
  let check name (cluster_of, proc_of_cluster) n procs =
    let k = Array.length proc_of_cluster in
    Alcotest.(check bool) (name ^ " cluster count") true (k <= procs);
    let counts = Array.make k 0 in
    Array.iter (fun c -> counts.(c) <- counts.(c) + 1) cluster_of;
    let mx = Array.fold_left max 0 counts and mn = Array.fold_left min max_int counts in
    Alcotest.(check bool) (name ^ " balanced") true (mx - mn <= 1);
    Alcotest.(check int) (name ^ " covers tasks") n (Array.length cluster_of)
  in
  check "block" (Baselines.block ~n:13 ~procs:4) 13 4;
  check "round_robin" (Baselines.round_robin ~n:13 ~procs:4) 13 4;
  check "random" (Baselines.random (Rng.create 3) ~n:13 ~procs:4) 13 4

let () =
  Alcotest.run "mapper"
    [
      ( "mwm_contract",
        [
          Alcotest.test_case "Fig 5 walkthrough" `Quick test_mwm_fig5;
          Alcotest.test_case "optimal when |V| <= 2P" `Quick test_mwm_optimal_small;
          Alcotest.test_case "identity when procs >= tasks" `Quick
            test_mwm_identity_when_enough_procs;
          Alcotest.test_case "capacity respected" `Quick test_mwm_respects_capacity;
          Alcotest.test_case "infeasible rejected" `Quick test_mwm_infeasible;
        ] );
      ( "group_contract",
        [
          Alcotest.test_case "Fig 4 contraction" `Quick test_group_contract_fig4;
          Alcotest.test_case "balanced at several sizes" `Quick test_group_contract_balance;
          Alcotest.test_case "rejections" `Quick test_group_contract_rejects;
          Alcotest.test_case "Sylow condition" `Quick test_balanced_contraction_exists;
        ] );
      ( "canned",
        [
          Alcotest.test_case "ring -> hypercube (Gray)" `Quick test_canned_ring_to_hypercube;
          Alcotest.test_case "hypercube -> hypercube subcubes" `Quick
            test_canned_hypercube_subcubes;
          Alcotest.test_case "binomial -> hypercube" `Quick test_canned_binomial_to_hypercube;
          Alcotest.test_case "binary tree -> hypercube" `Quick test_canned_bintree_to_hypercube;
          Alcotest.test_case "mesh -> mesh tiling" `Quick test_canned_mesh_to_mesh;
          Alcotest.test_case "mesh -> hypercube" `Quick test_canned_mesh_to_hypercube;
          Alcotest.test_case "declines cleanly" `Quick test_canned_declines;
        ] );
      ( "binomial_mesh",
        [
          Alcotest.test_case "layouts valid" `Quick test_binomial_mesh_valid;
          Alcotest.test_case "average dilation <= 1.2" `Quick test_binomial_mesh_dilation_bound;
          Alcotest.test_case "B4 all dilation 1" `Quick test_binomial_mesh_small_perfect;
        ] );
      ( "nn_embed",
        [
          Alcotest.test_case "injective" `Quick test_nn_embed_injective;
          Alcotest.test_case "heaviest pair adjacent" `Quick test_nn_embed_heaviest_adjacent;
          Alcotest.test_case "better than random" `Quick test_nn_embed_beats_bad_order;
        ] );
      ( "mm_route",
        [
          Alcotest.test_case "valid routing (15-body on Q3)" `Quick test_mm_route_valid;
          Alcotest.test_case "spreads the chordal phase (Fig 6)" `Quick
            test_mm_route_spreads_chordal;
          Alcotest.test_case "co-located edges are local" `Quick test_mm_route_colocated_empty;
          Alcotest.test_case "valid on irregular topologies" `Quick test_mm_route_all_topologies;
          Alcotest.test_case "validate checks the edge set" `Quick test_validate_edge_set;
        ] );
      ( "stone",
        [
          Alcotest.test_case "min-cut optimal" `Quick test_stone_optimal_two_proc;
          Alcotest.test_case "natural split" `Quick test_stone_assignment_consistent;
          Alcotest.test_case "recursive bisection" `Quick test_stone_bisection;
        ] );
      ("baselines", [ Alcotest.test_case "balanced" `Quick test_baselines_balanced ]);
    ]
