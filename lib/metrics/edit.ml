module Mapping = Oregami_mapper.Mapping
module Ctx = Oregami_mapper.Ctx
module Pipeline = Oregami_mapper.Pipeline
module Topology = Oregami_topology.Topology
module Routes = Oregami_topology.Routes

let with_suffix m = if String.length m.Mapping.strategy > 5 && String.sub m.Mapping.strategy (String.length m.Mapping.strategy - 5) 5 = "+edit" then m.Mapping.strategy else m.Mapping.strategy ^ "+edit"

(* re-route the edited placement the way a fresh mapping is routed *)
let rebuild (m : Mapping.t) clustering =
  Pipeline.route (Ctx.of_taskgraph m.Mapping.tg m.Mapping.topo) (with_suffix m) clustering

let move_task (m : Mapping.t) ~task ~proc =
  let n = m.Mapping.tg.Oregami_taskgraph.Taskgraph.n in
  if task < 0 || task >= n then Error (Printf.sprintf "no task %d" task)
  else if proc < 0 || proc >= Topology.node_count m.Mapping.topo then
    Error (Printf.sprintf "no processor %d" proc)
  else begin
    let assignment = Mapping.assignment m in
    if assignment.(task) = proc then Ok m
    else begin
      (* recluster from the assignment: clusters become the non-empty
         processors, so singleton moves stay simple *)
      assignment.(task) <- proc;
      rebuild m (Mapping.clusters assignment)
    end
  end

let swap_processors (m : Mapping.t) a b =
  let procs = Topology.node_count m.Mapping.topo in
  if a < 0 || a >= procs || b < 0 || b >= procs then Error "processor out of range"
  else begin
    let proc_of_cluster =
      Array.map
        (fun p -> if p = a then b else if p = b then a else p)
        m.Mapping.proc_of_cluster
    in
    rebuild m (Array.copy m.Mapping.cluster_of, proc_of_cluster)
  end

let reroute_edge (m : Mapping.t) ~phase ~src ~dst ~path =
  let topo = m.Mapping.topo in
  match List.find_opt (fun pr -> pr.Mapping.pr_phase = phase) m.Mapping.routings with
  | None -> Error (Printf.sprintf "no phase %S" phase)
  | Some pr ->
    (match
       List.find_opt (fun re -> re.Mapping.re_src = src && re.Mapping.re_dst = dst) pr.Mapping.pr_edges
     with
    | None -> Error (Printf.sprintf "phase %S has no edge %d -> %d" phase src dst)
    | Some re ->
      let pu = Mapping.proc_of_task m src and pv = Mapping.proc_of_task m dst in
      let valid =
        match (path, List.rev path) with
        | first :: _, last :: _ when first = pu && last = pv -> true
        | _, _ -> false
      in
      if not valid then Error "path endpoints do not match the task placement"
      else begin
        match Topology.links_of_path topo path with
        | exception Invalid_argument msg -> Error msg
        | links ->
          let new_route = { Routes.nodes = path; links } in
          let pr_edges =
            List.map
              (fun e -> if e == re then { e with Mapping.re_route = new_route } else e)
              pr.Mapping.pr_edges
          in
          let routings =
            List.map
              (fun p -> if p.Mapping.pr_phase = phase then { p with Mapping.pr_edges } else p)
              m.Mapping.routings
          in
          let candidate = { m with Mapping.routings; strategy = with_suffix m } in
          (match Mapping.validate candidate with Ok () -> Ok candidate | Error e -> Error e)
      end)
