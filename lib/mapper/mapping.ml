module Taskgraph = Oregami_taskgraph.Taskgraph
module Topology = Oregami_topology.Topology
module Routes = Oregami_topology.Routes
module Ugraph = Oregami_graph.Ugraph
module Digraph = Oregami_graph.Digraph

type routed_edge = {
  re_src : int;
  re_dst : int;
  re_volume : int;
  re_route : Routes.route;
}

type phase_routing = { pr_phase : string; pr_edges : routed_edge list }

type t = {
  tg : Taskgraph.t;
  topo : Topology.t;
  cluster_of : int array;
  proc_of_cluster : int array;
  routings : phase_routing list;
  strategy : string;
}

let cluster_count m = Array.length m.proc_of_cluster

let proc_of_task m task = m.proc_of_cluster.(m.cluster_of.(task))

let assignment m = Array.init m.tg.Taskgraph.n (proc_of_task m)

let tasks_on_proc m =
  let procs = Topology.node_count m.topo in
  let tasks = Array.make procs [] in
  for task = m.tg.Taskgraph.n - 1 downto 0 do
    let p = proc_of_task m task in
    tasks.(p) <- task :: tasks.(p)
  done;
  tasks

(* scan [s, stop) for an unclaimed out-edge slot to [d] of volume [w]
   and claim it *)
let rec claim_slot dst vol claimed stop d w s =
  s < stop
  && ((dst.(s) = d && vol.(s) = w && Bytes.get claimed s = '\000'
      && begin
        Bytes.set claimed s '\001';
        true
      end)
     || claim_slot dst vol claimed stop d w (s + 1))

(* the routed edges of one phase are exactly the task graph's edges
   between distinct tasks, volumes included: each routed edge claims
   its own identical out-edge slot of its sender, and every slot but a
   self-loop ends up claimed.  The slots live in flat arrays, so even
   a phase of thousands of edges is checked without minor-heap garbage
   for the collector to trace *)
let routes_every_edge g routed =
  let n = Digraph.node_count g in
  let first = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    first.(u + 1) <- first.(u) + Digraph.out_degree g u
  done;
  let slots = first.(n) in
  let dst = Array.make slots 0 and vol = Array.make slots 0 in
  let next = ref 0 in
  let record v w =
    dst.(!next) <- v;
    vol.(!next) <- w;
    incr next
  in
  for u = 0 to n - 1 do
    Digraph.iter_succ record g u
  done;
  (* self-loops are never routed *)
  let claimed = Bytes.make slots '\000' in
  for u = 0 to n - 1 do
    for s = first.(u) to first.(u + 1) - 1 do
      if dst.(s) = u then Bytes.set claimed s '\001'
    done
  done;
  List.for_all
    (fun re ->
      let u = re.re_src in
      u >= 0 && u < n
      && claim_slot dst vol claimed first.(u + 1) re.re_dst re.re_volume first.(u))
    routed
  && Bytes.for_all (fun c -> c <> '\000') claimed

let rec ends_at p = function
  | [ last ] -> last = p
  | _ :: rest -> ends_at p rest
  | [] -> false

(* [links] joins consecutive [nodes] link by link; a topology has one
   link per processor pair, so reading each link's endpoints decides
   it without building [Topology.links_of_path]'s list *)
let rec follows topo nodes links =
  match (nodes, links) with
  | ([] | [ _ ]), [] -> true
  | u :: (v :: _ as rest), l :: links ->
    l >= 0
    && l < Topology.link_count topo
    && (let a, b = Topology.link_endpoints topo l in
        (a = u && b = v) || (a = v && b = u))
    && follows topo rest links
  | _ -> false

(* why one routed edge's route disagrees with the placement, if it
   does *)
let route_error m re =
  let pu = proc_of_task m re.re_src and pv = proc_of_task m re.re_dst in
  let { Routes.nodes; links } = re.re_route in
  if pu = pv then
    match links with
    | [] -> None
    | _ :: _ -> Some "co-located edge has a non-empty route"
  else
    match nodes with
    | first :: _ when first = pu ->
      if not (ends_at pv nodes) then Some "route does not end at the receiver's processor"
      else if follows m.topo nodes links then None
      else Some "route links do not match route nodes"
    | _ -> Some "route does not start at the sender's processor"

let validate ?constraints m =
  let n = m.tg.Taskgraph.n in
  let k = cluster_count m in
  let procs = Topology.node_count m.topo in
  let ( let* ) = Result.bind in
  let* () =
    if Array.length m.cluster_of = n then Ok ()
    else Error "cluster_of length differs from task count"
  in
  let* () =
    if Array.for_all (fun c -> c >= 0 && c < k) m.cluster_of then Ok ()
    else Error "cluster id out of range"
  in
  let* () =
    let seen = Array.make k false in
    Array.iter (fun c -> seen.(c) <- true) m.cluster_of;
    if Array.for_all (fun b -> b) seen then Ok () else Error "empty cluster"
  in
  let* () =
    if Array.for_all (fun p -> p >= 0 && p < procs) m.proc_of_cluster then Ok ()
    else Error "processor id out of range"
  in
  let* () =
    match Array.find_opt (fun p -> not (Topology.alive m.topo p)) m.proc_of_cluster with
    | None -> Ok ()
    | Some p -> Error (Printf.sprintf "cluster placed on dead processor %d" p)
  in
  let* () =
    let used = Array.make procs false in
    let dup = ref false in
    Array.iter
      (fun p ->
        if used.(p) then dup := true;
        used.(p) <- true)
      m.proc_of_cluster;
    if !dup then Error "two clusters on one processor (embedding must be injective)"
    else Ok ()
  in
  (* placement constraints, when supplied: report the first DRC
     violation by name (task, processor, rule) *)
  let* () =
    match constraints with
    | None -> Ok ()
    | Some c -> begin
      match Constraints.drc c (assignment m) with
      | [] -> Ok ()
      | v :: rest ->
        let extra =
          match List.length rest with
          | 0 -> ""
          | k -> Printf.sprintf " (and %d more)" k
        in
        Error (Constraints.violation_to_string v ^ extra)
    end
  in
  (* every communication phase must be routed consistently *)
  List.fold_left
    (fun acc (cp : Taskgraph.comm_phase) ->
      let* () = acc in
      match List.find_opt (fun pr -> pr.pr_phase = cp.Taskgraph.cp_name) m.routings with
      | None -> Error (Printf.sprintf "phase %S has no routing" cp.Taskgraph.cp_name)
      | Some pr ->
        if not (routes_every_edge cp.Taskgraph.edges pr.pr_edges) then
          Error
            (Printf.sprintf "phase %S: routed edge set differs from task graph"
               cp.Taskgraph.cp_name)
        else begin
          match List.find_map (route_error m) pr.pr_edges with
          | None -> Ok ()
          | Some e -> Error e
        end)
    (Ok ()) m.tg.Taskgraph.comm_phases

let dilation_stats m =
  let hops = ref [] in
  List.iter
    (fun pr ->
      List.iter
        (fun re ->
          if proc_of_task m re.re_src <> proc_of_task m re.re_dst then
            hops := Routes.hops re.re_route :: !hops)
        pr.pr_edges)
    m.routings;
  match !hops with
  | [] -> (0, 0.0, 0)
  | l ->
    let count = List.length l in
    let total = List.fold_left ( + ) 0 l in
    (List.fold_left max 0 l, float_of_int total /. float_of_int count, count)

let clusters assignment =
  let id = Array.make (1 + Array.fold_left max (-1) assignment) (-1) in
  let next = ref 0 in
  let cluster_of =
    Array.map
      (fun p ->
        if id.(p) < 0 then begin
          id.(p) <- !next;
          incr next
        end;
        id.(p))
      assignment
  in
  let proc_of_cluster = Array.make !next 0 in
  Array.iteri (fun p c -> if c >= 0 then proc_of_cluster.(c) <- p) id;
  (cluster_of, proc_of_cluster)

let total_ipc static cluster_of =
  List.fold_left
    (fun acc (u, v, w) -> if cluster_of.(u) <> cluster_of.(v) then acc + w else acc)
    0 (Ugraph.edges static)

let pp fmt m =
  Format.fprintf fmt "@[<v>mapping %S onto %s via %s" m.tg.Taskgraph.tg_name
    (Topology.name m.topo) m.strategy;
  Format.fprintf fmt "@,  %d tasks -> %d clusters -> %d processors" m.tg.Taskgraph.n
    (cluster_count m)
    (Topology.node_count m.topo);
  let max_d, avg_d, routed = dilation_stats m in
  Format.fprintf fmt "@,  routed edges: %d, dilation max %d avg %.3f" routed max_d avg_d;
  Format.fprintf fmt "@]"
