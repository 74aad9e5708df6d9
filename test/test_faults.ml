(* Fault injection, degraded-topology mapping, and repair (the
   robustness acceptance scenarios: hypercube(4) with 2 dead processors
   and 1 dead link must map cleanly; repair must move strictly fewer
   tasks than a from-scratch remap; disconnecting faults must be a
   named Error). *)

open Oregami

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let topo_of s = Topology.make (Result.get_ok (Topology.parse s))

let get = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let expect_error what pred = function
  | Ok _ -> Alcotest.failf "%s: expected an Error" what
  | Error e ->
    Alcotest.(check bool) (Printf.sprintf "%s: error names the cause (%s)" what e) true (pred e)

(* hypercube(4) with processors 3 and 7 dead plus one alive-alive link
   cut: the shared acceptance scenario *)
let acceptance_view () =
  let base = topo_of "hypercube:4" in
  let dead_link =
    match Topology.link_between base 0 1 with
    | Some l -> l
    | None -> Alcotest.fail "hypercube(4) must have link 0-1"
  in
  let faults = get (Faults.make ~procs:[ 3; 7 ] ~links:[ dead_link ] base) in
  (base, faults, get (Faults.degrade base faults))

let test_degrade_structure () =
  let base, faults, view = acceptance_view () in
  let d = view.Faults.topo in
  Alcotest.(check bool) "degraded flag" true (Topology.is_degraded d);
  Alcotest.(check bool) "base stays pristine" false (Topology.is_degraded base);
  Alcotest.(check int) "node ids preserved" 16 (Topology.node_count d);
  Alcotest.(check int) "14 alive" 14 (Topology.alive_count d);
  Alcotest.(check (list int)) "dead procs" [ 3; 7 ] (Topology.dead_procs d);
  Alcotest.(check bool) "3 is dead" false (Topology.alive d 3);
  Alcotest.(check bool) "0 is alive" true (Topology.alive d 0);
  (* hypercube(4): 32 links; procs 3 and 7 share one link and have
     degree 4 each, so 4 + 4 - 1 = 7 incident links die, plus the cut
     0-1 link *)
  Alcotest.(check int) "surviving links" (32 - 7 - 1) (Topology.link_count d);
  Alcotest.(check int) "dead procs keep no links" 0 (Topology.degree d 3);
  Alcotest.(check (option int)) "cut link absent" None (Topology.link_between d 0 1);
  Alcotest.(check string) "name shows faults" "hypercube(4)[-2p,-1l]" (Topology.name d);
  (* remapped link ids translate back to base ids over the same endpoints *)
  Array.iteri
    (fun i b ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "link %d endpoints" i)
        (Topology.link_endpoints base b) (Topology.link_endpoints d i))
    view.Faults.link_to_base;
  Array.iteri
    (fun b d_id ->
      match d_id with
      | Some i -> Alcotest.(check int) "round trip" b view.Faults.link_to_base.(i)
      | None -> ())
    view.Faults.link_of_base;
  Alcotest.(check bool) "cut base link is dead" true
    (List.for_all (fun l -> view.Faults.link_of_base.(l) = None) faults.Faults.links);
  (* the degraded view rebuilds its own distance cache and leaves the
     base's untouched *)
  let before = Distcache.hop_builds base in
  let dc = Distcache.hops d in
  Alcotest.(check int) "fresh cache slot" 1 (Distcache.hop_builds d);
  Alcotest.(check int) "base cache untouched" before (Distcache.hop_builds base);
  (* distances follow the degraded graph: 0-1 now takes a detour *)
  Alcotest.(check int) "0->1 detours" 3 (Distcache.hop dc 0 1)

let test_fault_validation () =
  let base = topo_of "hypercube:3" in
  expect_error "proc out of range" (fun e -> contains e "out of range")
    (Faults.make ~procs:[ 8 ] base);
  expect_error "link out of range" (fun e -> contains e "out of range")
    (Faults.make ~links:[ 99 ] base);
  expect_error "all dead" (fun e -> contains e "every processor")
    (Faults.make ~procs:(List.init 8 Fun.id) base);
  (* random fault sets are reproducible and in range *)
  let rng = Prelude.Rng.create 42 in
  let f = get (Faults.random rng ~procs:2 ~links:3 base) in
  Alcotest.(check int) "2 random procs" 2 (List.length f.Faults.procs);
  Alcotest.(check int) "3 random links" 3 (List.length f.Faults.links);
  let rng' = Prelude.Rng.create 42 in
  let f' = get (Faults.random rng' ~procs:2 ~links:3 base) in
  Alcotest.(check bool) "seeded draw is deterministic" true (f = f');
  expect_error "too many random procs" (fun e -> contains e "at least one")
    (Faults.random rng ~procs:8 ~links:0 base)

let test_partition_errors () =
  (* killing the middle of a line splits it *)
  let line = topo_of "line:4" in
  expect_error "line split" (fun e -> contains e "partition")
    (Faults.degrade line (get (Faults.make ~procs:[ 1 ] line)));
  (* cutting two ring links splits the ring *)
  let ring = topo_of "ring:6" in
  let l a b = Option.get (Topology.link_between ring a b) in
  expect_error "ring split" (fun e -> contains e "partitions")
    (Faults.degrade ring (get (Faults.make ~links:[ l 0 1; l 3 4 ] ring)));
  (* an isolated-but-alive processor is its own partition *)
  let star = topo_of "bintree:1" in
  expect_error "isolated leaf" (fun e -> contains e "partition")
    (Faults.degrade star (get (Faults.make ~procs:[ 0 ] star)));
  (* one cut that keeps the ring connected is fine *)
  let view = get (Faults.degrade ring (get (Faults.make ~links:[ l 0 1 ] ring))) in
  Alcotest.(check int) "one partition" 1 (List.length (Faults.partitions view.Faults.topo))

let route_links_in_base view (m : Mapping.t) =
  List.concat_map
    (fun pr ->
      List.concat_map
        (fun re -> List.map (fun l -> view.Faults.link_to_base.(l)) re.Mapping.re_route.Routes.links)
        pr.Mapping.pr_edges)
    m.Mapping.routings

let test_map_on_degraded () =
  let _, faults, view = acceptance_view () in
  let spec = Workloads.nbody ~n:14 ~s:2 in
  let compiled = Workloads.compile_exn spec in
  let result, stats = Driver.report ~faults compiled view.Faults.topo in
  let m = get result in
  (* acceptance: no task on a dead processor *)
  Array.iter
    (fun p ->
      Alcotest.(check bool) (Printf.sprintf "proc %d alive" p) true
        (Topology.alive view.Faults.topo p))
    (Mapping.assignment m);
  (* acceptance: no phase routed over a dead link (translate surviving
     link ids back to base ids and compare against the fault set) *)
  List.iter
    (fun bl ->
      Alcotest.(check bool) "route avoids dead links" false (List.mem bl faults.Faults.links))
    (route_links_in_base view m);
  (* the symmetry strategies reject with a named reason *)
  let rejections = Stats.rejections stats in
  List.iter
    (fun name ->
      match List.assoc_opt name rejections with
      | Some reason ->
        Alcotest.(check bool)
          (Printf.sprintf "%s names degradation (%s)" name reason)
          true (contains reason "degraded topology")
      | None -> Alcotest.failf "strategy %s should have been rejected" name)
    [ "canned"; "group" ];
  Alcotest.(check bool) "mapping still validates" true (Mapping.validate m = Ok ())

let test_baselines_on_degraded () =
  let _, faults, view = acceptance_view () in
  let compiled = Workloads.compile_exn (Workloads.nbody ~n:14 ~s:1) in
  List.iter
    (fun only ->
      let options = { Driver.default_options with Driver.only = [ only ] } in
      let m = get (Driver.map_compiled ~options ~faults compiled view.Faults.topo) in
      Array.iter
        (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: proc %d alive" only p)
            true
            (Topology.alive view.Faults.topo p))
        (Mapping.assignment m))
    [ "random"; "naive-block"; "round-robin"; "mwm"; "blocks" ]

let test_repair_vs_remap () =
  let base, faults, _ = acceptance_view () in
  let spec = Workloads.nbody ~n:16 ~s:2 in
  let compiled = Workloads.compile_exn spec in
  let tg = compiled.Larcs.Compile.graph in
  let r = get (Remap.recover ~compiled tg base faults) in
  let repair = r.Remap.rc_repair in
  let degraded = repair.Repair.rp_mapping.Mapping.topo in
  (* every surviving placement is frozen: only dead-processor tasks move *)
  List.iter
    (fun mv ->
      Alcotest.(check bool) "move starts on a dead proc" false
        (Topology.alive degraded mv.Repair.mv_from);
      Alcotest.(check bool) "move ends on an alive proc" true
        (Topology.alive degraded mv.Repair.mv_to))
    repair.Repair.rp_moves;
  Alcotest.(check int) "frozen + moved = tasks" tg.Taskgraph.n
    (repair.Repair.rp_frozen + Repair.moved repair);
  Alcotest.(check bool) "repaired mapping validates" true
    (Mapping.validate repair.Repair.rp_mapping = Ok ());
  (* acceptance: minimum-disruption repair moves strictly fewer tasks
     than mapping the degraded machine from scratch *)
  Alcotest.(check bool)
    (Printf.sprintf "repair moves %d < remap moves %d" (Repair.moved repair)
       r.Remap.rc_remap_bill.Remap.b_moved)
    true
    (Repair.moved repair < r.Remap.rc_remap_bill.Remap.b_moved);
  Alcotest.(check bool) "repair moved someone" true (Repair.moved repair > 0);
  (* both transitions are priced with the same migration model; moving
     anything costs network time *)
  Alcotest.(check bool) "repair migration priced" true (r.Remap.rc_repair_bill.Remap.b_migration > 0);
  Alcotest.(check bool) "remap migration priced" true (r.Remap.rc_remap_bill.Remap.b_migration > 0)

let test_netsim_fault_event () =
  let base, _, _ = acceptance_view () in
  let compiled = Workloads.compile_exn (Workloads.nbody ~n:16 ~s:2) in
  let m = get (Driver.map_compiled compiled base) in
  let event = { Netsim.at_slot = 2; kill_procs = [ 3; 7 ]; kill_links = [] } in
  let r = get (Netsim.run_with_fault m event) in
  Alcotest.(check int) "makespan = pre + migration + post" r.Netsim.rv_makespan
    (r.Netsim.rv_pre_time + r.Netsim.rv_migration_time + r.Netsim.rv_post_time);
  Alcotest.(check int) "delta vs fault-free" r.Netsim.rv_delta
    (r.Netsim.rv_makespan - r.Netsim.rv_fault_free.Netsim.makespan);
  Alcotest.(check bool) "evacuation costs something" true (r.Netsim.rv_migration_time > 0);
  let repaired = r.Netsim.rv_repair.Repair.rp_mapping in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "post-fault placement alive" true
        (Topology.alive repaired.Mapping.topo p))
    (Mapping.assignment repaired);
  (* an empty fault set and a disconnecting one are named errors *)
  expect_error "empty faults" (fun e -> contains e "nothing")
    (Netsim.run_with_fault m { Netsim.at_slot = 0; kill_procs = []; kill_links = [] });
  let line = topo_of "line:4" in
  let lm = get (Driver.map_taskgraph (Workloads.compile_exn (Workloads.nbody ~n:4 ~s:1)).Larcs.Compile.graph line) in
  expect_error "disconnecting fault" (fun e -> contains e "partition")
    (Netsim.run_with_fault lm { Netsim.at_slot = 0; kill_procs = [ 1 ]; kill_links = [] })

(* repair routes through the same entry point as a mapping run, so
   the routing option reaches it *)
let test_repair_honours_routing () =
  let base, _, view = acceptance_view () in
  let compiled = Workloads.compile_exn (Workloads.nbody ~n:16 ~s:2) in
  let m = get (Driver.map_compiled compiled base) in
  let options = { Driver.default_options with Driver.routing = Driver.Oblivious } in
  let r = get (Repair.repair ~options m view.Faults.topo) in
  let repaired = r.Repair.rp_mapping in
  let oblivious =
    Mapper.Route.deterministic_route repaired.Mapping.tg view.Faults.topo
      ~proc_of_task:(Mapping.assignment repaired)
  in
  Alcotest.(check bool) "oblivious routes" true (repaired.Mapping.routings = oblivious);
  Alcotest.(check bool) "validates" true (Mapping.validate repaired = Ok ())

(* a mid-run fault is repaired under the options the mapping was made
   with, so an oblivious mapping stays oblivious after the repair *)
let test_fault_event_honours_routing () =
  let base, _, _ = acceptance_view () in
  let compiled = Workloads.compile_exn (Workloads.nbody ~n:16 ~s:2) in
  let options = { Driver.default_options with Driver.routing = Driver.Oblivious } in
  let m = get (Driver.map_compiled ~options compiled base) in
  let event = { Netsim.at_slot = 2; kill_procs = [ 3; 7 ]; kill_links = [] } in
  let r = get (Netsim.run_with_fault ~options m event) in
  let repaired = r.Netsim.rv_repair.Repair.rp_mapping in
  let oblivious =
    Mapper.Route.deterministic_route repaired.Mapping.tg repaired.Mapping.topo
      ~proc_of_task:(Mapping.assignment repaired)
  in
  Alcotest.(check bool) "oblivious routes" true (repaired.Mapping.routings = oblivious);
  Alcotest.(check bool) "validates" true (Mapping.validate repaired = Ok ())

(* above the multilevel threshold, [Auto] repairs with coarse routing
   as the mapping itself does *)
let test_large_repair_routes_coarse () =
  let base = topo_of "torus:8x8" in
  let tg = get (Synth.build "synth:grid:4096") in
  let m = get (Driver.map_taskgraph tg base) in
  let view = get (Faults.degrade base (get (Faults.make ~procs:[ 9 ] base))) in
  let r = get (Repair.repair m view.Faults.topo) in
  let repaired = r.Repair.rp_mapping in
  Alcotest.(check bool) "validates" true (Mapping.validate repaired = Ok ());
  Alcotest.(check bool) "evacuated proc 9" true
    (Repair.moved r > 0
    && List.for_all (fun mv -> mv.Repair.mv_from = 9) r.Repair.rp_moves);
  let coarse, _ =
    Mapper.Route.coarse_route tg view.Faults.topo ~proc_of_task:(Mapping.assignment repaired)
  in
  Alcotest.(check bool) "coarse routes" true (repaired.Mapping.routings = coarse)

let prop_clusters =
  QCheck.Test.make ~name:"Mapping.clusters numbers clusters in first-use order" ~count:200
    QCheck.(array_of_size Gen.(0 -- 60) (int_bound 15))
    (fun assignment ->
      let cluster_of, proc_of_cluster = Mapping.clusters assignment in
      let opened = ref 0 in
      Array.iteri
        (fun t c ->
          if c = !opened then incr opened
          else if c > !opened then
            QCheck.Test.fail_reportf "task %d opens cluster %d before cluster %d" t c !opened;
          if proc_of_cluster.(c) <> assignment.(t) then
            QCheck.Test.fail_reportf "task %d: cluster %d is on %d, not %d" t c
              proc_of_cluster.(c) assignment.(t))
        cluster_of;
      Array.length cluster_of = Array.length assignment
      && Array.length proc_of_cluster = !opened
      && List.length (List.sort_uniq compare (Array.to_list proc_of_cluster)) = !opened)

let test_incremental_and_routes_degraded () =
  let base = topo_of "hypercube:3" in
  let view = get (Faults.degrade base (get (Faults.make ~procs:[ 5 ] base))) in
  let d = view.Faults.topo in
  (* deterministic routing falls back to surviving shortest routes *)
  let r = Distcache.deterministic d 1 7 in
  Alcotest.(check bool) "route avoids the dead proc" true
    (List.for_all (Topology.alive d) r.Routes.nodes);
  (match Routes.ecube d 1 7 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ecube must refuse degraded topologies");
  (* the incremental placer never lands on a dead processor *)
  let g = Graph.Ugraph.create 6 in
  List.iter (fun (u, v) -> Graph.Ugraph.add_edge g u v) [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ];
  let placed = Mapper.Incremental.place g ~activation:(Array.make 6 0) ~cap:1 d in
  Array.iter
    (fun p -> Alcotest.(check bool) "placement alive" true (Topology.alive d p))
    placed

(* revive: the inverse of degrade, with stable ids *)
let test_revive () =
  let base, faults, view = acceptance_view () in
  (* partial revive: bring processor 3 back, keep 7 and the cut link dead *)
  let partial = get (Faults.revive ~procs:[ 3 ] view) in
  Alcotest.(check (list int)) "7 still dead" [ 7 ]
    partial.Faults.faults.Faults.procs;
  Alcotest.(check bool) "3 alive again" true (Topology.alive partial.Faults.topo 3);
  Alcotest.(check bool) "7 still dead in topo" false
    (Topology.alive partial.Faults.topo 7);
  Alcotest.(check (list int)) "cut link still dead" faults.Faults.links
    partial.Faults.faults.Faults.links;
  (* full revive: the view's topo is the base itself *)
  let full =
    get (Faults.revive ~procs:partial.Faults.faults.Faults.procs
           ~links:partial.Faults.faults.Faults.links partial)
  in
  Alcotest.(check bool) "no faults left" true (Faults.is_empty full.Faults.faults);
  Alcotest.(check bool) "topo is the base" true (full.Faults.topo == base);
  (* errors are named *)
  expect_error "revive an alive processor" (fun e -> contains e "not dead")
    (Faults.revive ~procs:[ 0 ] view);
  expect_error "revive an alive link" (fun e -> contains e "not dead")
    (Faults.revive ~links:[ 31 ] view)

(* degrade ∘ revive round-trips the link table for arbitrary fault
   sets: every surviving link of the re-revived view carries the same
   base id and endpoints as before the round trip *)
let prop_revive_roundtrip =
  QCheck.Test.make ~name:"degrade ∘ revive round-trips the link table" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prelude.Rng.create seed in
      let base =
        topo_of
          (match seed mod 3 with
          | 0 -> "hypercube:4"
          | 1 -> "torus:4x4"
          | _ -> "mesh:3x5")
      in
      let nprocs = Topology.node_count base in
      let nlinks = Topology.link_count base in
      match
        Faults.random rng
          ~procs:(Prelude.Rng.int rng (min 3 (nprocs - 1)))
          ~links:(Prelude.Rng.int rng (min 4 nlinks))
          base
      with
      | Error e -> QCheck.Test.fail_reportf "random faults: %s" e
      | Ok faults -> begin
        match Faults.degrade base faults with
        | Error _ -> true (* disconnecting draw: nothing to round-trip *)
        | Ok view -> begin
          match
            Faults.revive ~procs:faults.Faults.procs ~links:faults.Faults.links
              view
          with
          | Error e -> QCheck.Test.fail_reportf "full revive refused: %s" e
          | Ok revived ->
            if not (Faults.is_empty revived.Faults.faults) then
              QCheck.Test.fail_reportf "faults survive a full revive";
            if Topology.link_count revived.Faults.topo <> nlinks then
              QCheck.Test.fail_reportf "link count %d <> base %d"
                (Topology.link_count revived.Faults.topo)
                nlinks;
            (* every base link is its own image again *)
            Array.iteri
              (fun i b ->
                if i <> b then
                  QCheck.Test.fail_reportf "link %d maps to base %d after revive" i b)
              revived.Faults.link_to_base;
            (* and a second degrade with the same faults reproduces the
               original view's translation table exactly *)
            (match Faults.degrade revived.Faults.topo faults with
            | Error e -> QCheck.Test.fail_reportf "re-degrade refused: %s" e
            | Ok again ->
              if again.Faults.link_to_base <> view.Faults.link_to_base then
                QCheck.Test.fail_reportf "re-degrade shuffled link ids");
            true
        end
      end)

let () =
  Alcotest.run "faults"
    [
      ( "degrade",
        [
          Alcotest.test_case "structure" `Quick test_degrade_structure;
          Alcotest.test_case "validation" `Quick test_fault_validation;
          Alcotest.test_case "partitions" `Quick test_partition_errors;
          Alcotest.test_case "revive" `Quick test_revive;
          QCheck_alcotest.to_alcotest prop_revive_roundtrip;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "map on degraded" `Quick test_map_on_degraded;
          Alcotest.test_case "baselines avoid dead procs" `Quick test_baselines_on_degraded;
          Alcotest.test_case "incremental and routes" `Quick test_incremental_and_routes_degraded;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "repair vs remap" `Quick test_repair_vs_remap;
          Alcotest.test_case "mid-trace fault event" `Quick test_netsim_fault_event;
          Alcotest.test_case "repair honours routing" `Quick test_repair_honours_routing;
          Alcotest.test_case "mid-trace fault honours routing" `Quick
            test_fault_event_honours_routing;
          Alcotest.test_case "large repair routes coarse" `Quick
            test_large_repair_routes_coarse;
          QCheck_alcotest.to_alcotest prop_clusters;
        ] );
    ]
