(* The benchmark's output checks must reject corrupted outputs: each
   case takes a valid mapping (or lease table), breaks one thing, and
   expects the check that guards it to fail -- next to a control that
   expects the intact input to pass. *)

open Oregami
module Checks = Perfbench.Checks

let failures = ref 0

let expect name ok =
  Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let passes = function Ok () -> true | Error _ -> false

(* fails, and for the named reason *)
let fails ?(because = "") = function
  | Ok () -> false
  | Error e ->
    let n = String.length because and m = String.length e in
    let rec from i = i + n <= m && (String.sub e i n = because || from (i + 1)) in
    from 0

let topo = Result.get_ok (Topology.of_string "mesh:4x4")
let dist = Checks.bfs_distances topo
let all_alive _ = true

let mapping =
  match Driver.map_taskgraph (Result.get_ok (Synth.build "synth:rmat:40:3")) topo with
  | Ok m -> m
  | Error e -> failwith e

(* a routed edge at least two hops long, and its phase *)
let phase, edge =
  match
    List.find_map
      (fun pr ->
        List.find_map
          (fun re -> if Routes.hops re.Mapping.re_route >= 2 then Some (pr.Mapping.pr_phase, re) else None)
          pr.Mapping.pr_edges)
      mapping.Mapping.routings
  with
  | Some found -> found
  | None -> failwith "no multi-hop route to corrupt"

let with_route (route : Routes.route) =
  {
    mapping with
    Mapping.routings =
      List.map
        (fun pr ->
          if pr.Mapping.pr_phase <> phase then pr
          else
            {
              pr with
              Mapping.pr_edges =
                List.map (fun re -> if re == edge then { re with Mapping.re_route = route } else re) pr.Mapping.pr_edges;
            })
        mapping.Mapping.routings;
  }

let drop_nth n l = List.filteri (fun i _ -> i <> n) l

let () =
  let r = edge.Mapping.re_route in
  expect "intact mapping passes" (passes (Checks.mapping ~alive:all_alive ~dist mapping));
  expect "intact summary agrees" (passes (Checks.summary_agrees mapping (Metrics.summary mapping)));
  (* the middle processor and one link gone: the walk skips a hop *)
  let missing_hop = { Routes.nodes = drop_nth 1 r.Routes.nodes; links = drop_nth 1 r.Routes.links } in
  expect "route missing a hop fails"
    (fails ~because:"does not join" (Checks.mapping ~alive:all_alive ~dist (with_route missing_hop)));
  (* out to a neighbour and back before the real route: still a walk,
     two hops longer than the BFS distance *)
  let src = List.hd r.Routes.nodes in
  let detour =
    let neighbours = List.map fst (Graph.Ugraph.neighbors (Topology.graph topo) src) in
    match List.find_opt (fun v -> v <> List.nth r.Routes.nodes 1) neighbours with
    | Some v -> v
    | None -> failwith "no neighbour to detour through"
  in
  let link = Option.get (Topology.link_between topo src detour) in
  let longer = { Routes.nodes = src :: detour :: r.Routes.nodes; links = link :: link :: r.Routes.links } in
  expect "route longer than BFS fails"
    (fails ~because:"BFS distance" (Checks.mapping ~alive:all_alive ~dist (with_route longer)));
  (* a processor that holds tasks declared dead *)
  let dead = Checks.proc_of_task mapping 0 in
  expect "task on a dead processor fails"
    (fails ~because:"dead processor" (Checks.mapping ~alive:(fun p -> p <> dead) ~dist mapping));
  (* METRICS' IPC total off by one *)
  let s = Metrics.summary mapping in
  expect "IPC total off by one fails"
    (fails ~because:"total IPC"
       (Checks.summary_agrees mapping { s with Metrics.total_ipc = s.Metrics.total_ipc + 1 }));
  expect "contention off by one fails"
    (fails ~because:"contention"
       (Checks.summary_agrees mapping
          { s with Metrics.max_link_contention = s.Metrics.max_link_contention + 1 }));
  (* leases *)
  let alive = Array.make 16 true in
  let leased = [ 0; 1; 2; 3 ] and free = List.init 12 (fun i -> i + 4) in
  expect "disjoint leases pass" (passes (Checks.leases ~alive ~free ~leased [ ("a", [| 0; 1 |]); ("b", [| 2; 3 |]) ]));
  expect "two leases sharing a processor fail"
    (fails ~because:"hosts tasks of leases a and b"
       (Checks.leases ~alive ~free ~leased [ ("a", [| 0; 1 |]); ("b", [| 1; 2 |]) ]));
  expect "a processor both free and leased fails"
    (fails ~because:"both" (Checks.leases ~alive ~free:(3 :: free) ~leased [ ("a", [| 0; 1 |]) ]));
  alive.(2) <- false;
  expect "a lease on a dead processor fails"
    (fails ~because:"dead processor 2" (Checks.leases ~alive ~free ~leased:[ 0; 1; 3 ] [ ("a", [| 0; 2 |]) ]));
  if !failures > 0 then exit 1
