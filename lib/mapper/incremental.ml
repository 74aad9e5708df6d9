module Ugraph = Oregami_graph.Ugraph
module Topology = Oregami_topology.Topology
module Distcache = Oregami_topology.Distcache

let generations activation =
  let levels = Array.fold_left max 0 activation in
  List.init (levels + 1) (fun l ->
      Array.to_list
        (Array.of_seq
           (Seq.filter_map
              (fun (t, a) -> if a = l then Some t else None)
              (Array.to_seqi activation))))
  |> List.filter (fun g -> g <> [])

exception Stuck of string

let try_place ?budget ?feasible static ~activation ~cap topo =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let n = Ugraph.node_count static in
  let procs = Topology.node_count topo in
  let alive = Topology.alive topo in
  if Array.length activation <> n then Error "activation length mismatch"
  else if cap * Topology.alive_count topo < n then
    Error
      (Printf.sprintf "capacity too small: %d tasks on %d processors at cap %d"
         n (Topology.alive_count topo) cap)
  else begin
  let may = match feasible with Some f -> f | None -> fun _ _ -> true in
  let dc = Distcache.hops topo in
  let proc_of = Array.make n (-1) in
  let load = Array.make procs 0 in
  match
    List.iter
      (fun generation ->
        List.iter
          (fun t ->
            let cost =
              if Budget.poll budget ~cost:procs then Nn_embed.placed_cost dc static proc_of t
              else begin
                (* anytime completion once the budget dies: costing
                   each processor by its id takes the first alive
                   processor with room, skipping the communication sums *)
                Budget.note budget "incremental";
                Fun.id
              end
            in
            match
              Nn_embed.cheapest ~eligible:(fun p -> alive p && may t p) ~cost ~load ~cap
            with
            | -1 -> raise (Stuck (Printf.sprintf "no feasible processor for task %d" t))
            | p ->
              proc_of.(t) <- p;
              load.(p) <- load.(p) + 1)
          generation)
      (generations activation)
  with
  | () -> Ok proc_of
  | exception Stuck e -> Error e
  end

let place ?budget ?feasible static ~activation ~cap topo =
  match try_place ?budget ?feasible static ~activation ~cap topo with
  | Ok proc_of -> proc_of
  | Error e -> invalid_arg ("Incremental.place: " ^ e)
