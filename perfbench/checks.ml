(* Output checks made apart from the program: distances come from the
   benchmark's own breadth-first search over the topology's link table
   (never from Distcache), and IPC and contention are recounted from
   the task graph, the placement, the phase expression and the routes. *)

open Oregami

let ( let* ) = Result.bind

let errorf fmt = Printf.ksprintf (fun s -> Error s) fmt

(* ------------------------------------------------------------------ *)
(* distances *)

type dist = { d_n : int; d_hops : int array  (* row-major, -1 = unreachable *) }

let adjacency topo =
  let n = Topology.node_count topo in
  let adj = Array.make n [] in
  for l = 0 to Topology.link_count topo - 1 do
    let u, v = Topology.link_endpoints topo l in
    adj.(u) <- v :: adj.(u);
    adj.(v) <- u :: adj.(v)
  done;
  adj

let bfs_distances topo =
  let n = Topology.node_count topo in
  let adj = adjacency topo in
  let hops = Array.make (n * n) (-1) in
  let queue = Array.make n 0 in
  for s = 0 to n - 1 do
    let row = s * n in
    hops.(row + s) <- 0;
    queue.(0) <- s;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      List.iter
        (fun v ->
          if hops.(row + v) < 0 then begin
            hops.(row + v) <- hops.(row + u) + 1;
            queue.(!tail) <- v;
            incr tail
          end)
        adj.(u)
    done
  done;
  { d_n = n; d_hops = hops }

let distance d u v = d.d_hops.((u * d.d_n) + v)

(* ------------------------------------------------------------------ *)
(* one route *)

let rec last = function [ x ] -> x | _ :: rest -> last rest | [] -> -1

(* a walk over topology links from [src] to [dst] through alive
   processors, exactly as long as the BFS distance; empty when the two
   ends share a processor *)
let route ~alive ~dist topo ~src ~dst (r : Routes.route) =
  let links = r.Routes.links and nodes = r.Routes.nodes in
  if src = dst then
    if links = [] then Ok () else errorf "co-located edge routed over %d links" (List.length links)
  else
    match nodes with
    | [] -> errorf "no route from processor %d to %d" src dst
    | first :: _ ->
      let* () =
        if first = src && last nodes = dst then Ok ()
        else errorf "route runs %d -> %d, edge needs %d -> %d" first (last nodes) src dst
      in
      let* () =
        if List.length links = List.length nodes - 1 then Ok ()
        else errorf "route has %d nodes but %d links" (List.length nodes) (List.length links)
      in
      let nlinks = Topology.link_count topo in
      let rec walk = function
        | a :: (b :: _ as rest), l :: ls ->
          if l < 0 || l >= nlinks then errorf "link %d out of range" l
          else if Topology.link_endpoints topo l <> (min a b, max a b) then
            errorf "link %d does not join processors %d and %d" l a b
          else if not (alive a && alive b) then errorf "route %d -> %d crosses a dead processor" a b
          else walk (rest, ls)
        | _ -> Ok ()
      in
      let* () = walk (nodes, links) in
      let want = distance dist src dst in
      if List.length links = want then Ok ()
      else errorf "route %d -> %d has %d hops, BFS distance is %d" src dst (List.length links) want

(* ------------------------------------------------------------------ *)
(* a whole mapping *)

let proc_of_task (m : Mapping.t) t = m.Mapping.proc_of_cluster.(m.Mapping.cluster_of.(t))

let phase_edges (cp : Taskgraph.comm_phase) =
  Graph.Digraph.edges cp.Taskgraph.edges |> List.filter (fun (u, v, _) -> u <> v)

let placement ~alive (m : Mapping.t) =
  let procs = Topology.node_count m.Mapping.topo in
  let clusters = Array.length m.Mapping.proc_of_cluster in
  let owner = Array.make procs (-1) in
  let* () =
    Array.to_list m.Mapping.proc_of_cluster
    |> List.mapi (fun c p -> (c, p))
    |> List.fold_left
         (fun acc (c, p) ->
           let* () = acc in
           if p < 0 || p >= procs then errorf "cluster %d on processor %d, out of range" c p
           else if not (alive p) then errorf "cluster %d on dead processor %d" c p
           else if owner.(p) >= 0 then errorf "processor %d holds clusters %d and %d" p owner.(p) c
           else begin
             owner.(p) <- c;
             Ok ()
           end)
         (Ok ())
  in
  let bad = ref None in
  Array.iteri
    (fun t c -> if !bad = None && (c < 0 || c >= clusters) then bad := Some (t, c))
    m.Mapping.cluster_of;
  match !bad with
  | Some (t, c) -> errorf "task %d in cluster %d of %d" t c clusters
  | None ->
    if Array.length m.Mapping.cluster_of = m.Mapping.tg.Taskgraph.n then Ok ()
    else errorf "%d tasks placed, graph has %d" (Array.length m.Mapping.cluster_of) m.Mapping.tg.Taskgraph.n

let mapping ~alive ~dist (m : Mapping.t) =
  let* () = placement ~alive m in
  List.fold_left
    (fun acc (cp : Taskgraph.comm_phase) ->
      let* () = acc in
      let name = cp.Taskgraph.cp_name in
      match List.find_opt (fun pr -> pr.Mapping.pr_phase = name) m.Mapping.routings with
      | None -> errorf "phase %s is not routed" name
      | Some pr ->
        let routed =
          List.map (fun re -> (re.Mapping.re_src, re.Mapping.re_dst, re.Mapping.re_volume)) pr.Mapping.pr_edges
        in
        if List.sort compare routed <> List.sort compare (phase_edges cp) then
          errorf "phase %s: routed edges differ from the task graph's" name
        else
          List.fold_left
            (fun acc re ->
              let* () = acc in
              Result.map_error
                (fun e -> Printf.sprintf "phase %s, edge %d -> %d: %s" name re.Mapping.re_src re.Mapping.re_dst e)
                (route ~alive ~dist m.Mapping.topo
                   ~src:(proc_of_task m re.Mapping.re_src)
                   ~dst:(proc_of_task m re.Mapping.re_dst)
                   re.Mapping.re_route))
            (Ok ()) pr.Mapping.pr_edges)
    (Ok ()) m.Mapping.tg.Taskgraph.comm_phases

(* volume crossing processors over the whole phase-expression trace *)
let total_ipc (m : Mapping.t) =
  let tg = m.Mapping.tg in
  List.fold_left
    (fun acc (cp : Taskgraph.comm_phase) ->
      let times = Phase_expr.count_comm tg.Taskgraph.expr cp.Taskgraph.cp_name in
      List.fold_left
        (fun acc (u, v, w) -> if proc_of_task m u <> proc_of_task m v then acc + (w * times) else acc)
        acc (phase_edges cp))
    0 tg.Taskgraph.comm_phases

(* the most messages one link carries in one occurrence of one phase *)
let max_contention (m : Mapping.t) =
  let nlinks = Topology.link_count m.Mapping.topo in
  List.fold_left
    (fun acc pr ->
      let load = Array.make nlinks 0 in
      List.iter
        (fun re -> List.iter (fun l -> load.(l) <- load.(l) + 1) re.Mapping.re_route.Routes.links)
        pr.Mapping.pr_edges;
      Array.fold_left max acc load)
    0 m.Mapping.routings

let summary_agrees (m : Mapping.t) (s : Metrics.summary) =
  let ipc = total_ipc m and contention = max_contention m in
  if ipc <> s.Metrics.total_ipc then errorf "total IPC recounts to %d, METRICS says %d" ipc s.Metrics.total_ipc
  else if contention <> s.Metrics.max_link_contention then
    errorf "max contention recounts to %d, METRICS says %d" contention s.Metrics.max_link_contention
  else Ok ()

(* ------------------------------------------------------------------ *)
(* cluster leases *)

(* [leases ~alive ~free ~leased owned]: [alive] is the benchmark's own
   kill/revive record, [free] and [leased] the cluster's two pools, and
   [owned] every running lease's task -> processor assignment.  The
   pools must partition the alive processors, and every lease's tasks
   must sit on alive leased processors that no other lease uses. *)
let leases ~alive ~free ~leased owned =
  let n = Array.length alive in
  let pool = Array.make n "" in
  let* () =
    List.fold_left
      (fun acc (which, ps) ->
        List.fold_left
          (fun acc p ->
            let* () = acc in
            if p < 0 || p >= n then errorf "%s processor %d out of range" which p
            else if not alive.(p) then errorf "%s processor %d is dead" which p
            else if pool.(p) <> "" then errorf "processor %d is both %s and %s" p pool.(p) which
            else begin
              pool.(p) <- which;
              Ok ()
            end)
          acc ps)
      (Ok ()) [ ("free", free); ("leased", leased) ]
  in
  let* () =
    let missing = ref None in
    Array.iteri (fun p a -> if a && pool.(p) = "" && !missing = None then missing := Some p) alive;
    match !missing with
    | Some p -> errorf "alive processor %d is neither free nor leased" p
    | None -> Ok ()
  in
  let owner = Array.make n "" in
  List.fold_left
    (fun acc (name, assignment) ->
      Array.fold_left
        (fun acc p ->
          let* () = acc in
          if p < 0 || p >= n then errorf "lease %s places a task on processor %d, out of range" name p
          else if not alive.(p) then errorf "lease %s places a task on dead processor %d" name p
          else if pool.(p) <> "leased" then errorf "lease %s places a task on unleased processor %d" name p
          else if owner.(p) <> "" && owner.(p) <> name then
            errorf "processor %d hosts tasks of leases %s and %s" p owner.(p) name
          else begin
            owner.(p) <- name;
            Ok ()
          end)
        acc assignment)
    (Ok ()) owned
