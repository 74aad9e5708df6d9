module Taskgraph = Oregami_taskgraph.Taskgraph
module Topology = Oregami_topology.Topology
module Distcache = Oregami_topology.Distcache
module Ugraph = Oregami_graph.Ugraph

type move = { mv_task : int; mv_from : int; mv_to : int }

type t = { rp_mapping : Mapping.t; rp_moves : move list; rp_frozen : int }

let moved r = List.length r.rp_moves

(* NN-Embed's placement rule (Nn_embed.cheapest): the surviving
   processor with the least hop-weighted communication to the task's
   placed neighbours, ties by lighter load, then smaller id — below the
   balance cap when one has room, else anywhere *)
let evacuate static dc degraded allowed feasible proc_of load cap_load t =
  let eligible p = Topology.alive degraded p && allowed p && feasible t p in
  let cost = Nn_embed.placed_cost dc static proc_of t in
  match Nn_embed.cheapest ~eligible ~cost ~load ~cap:cap_load with
  | -1 -> Nn_embed.cheapest ~eligible ~cost ~load ~cap:max_int
  | p -> p

let repair ?(options = Ctx.default_options) ?(allowed = fun _ -> true) (m : Mapping.t)
    degraded =
  let tg = m.Mapping.tg in
  let n = tg.Taskgraph.n in
  if Topology.node_count degraded <> Topology.node_count m.Mapping.topo then
    Error
      (Printf.sprintf "degraded topology has %d processors but the mapping targets %d"
         (Topology.node_count degraded)
         (Topology.node_count m.Mapping.topo))
  else begin
    let alive_count = Topology.alive_count degraded in
    if alive_count = 0 then Error "no processor survives the faults"
    else begin
      (* the context compiles the constraints against the *degraded*
         machine: a task pinned to a dead processor is a compile error
         here — the repair refuses rather than evacuate it somewhere it
         must not run *)
      let ctx = Ctx.of_taskgraph ~options tg degraded in
      match Constraints.errors ctx.Ctx.constraints with
      | e :: _ -> Error ("constraints unsatisfiable after faults: " ^ e)
      | [] ->
      let feasible t p = Constraints.feasible ctx.Ctx.constraints ~task:t ~proc:p in
      let before = Mapping.assignment m in
      let static = Ctx.static ctx in
      (* surviving placements are frozen; only tasks stranded on a dead
         processor are evacuated *)
      let proc_of =
        Array.map (fun p -> if Topology.alive degraded p then p else -1) before
      in
      let load = Array.make (Topology.node_count degraded) 0 in
      Array.iter (fun p -> if p >= 0 then load.(p) <- load.(p) + 1) proc_of;
      let weight t =
        List.fold_left (fun acc (_, w) -> acc + w) 0 (Ugraph.neighbors static t)
      in
      let evacuees =
        Array.to_list (Array.init n (fun t -> t))
        |> List.filter (fun t -> proc_of.(t) = -1)
        (* heaviest communicators first: they anchor near their
           neighbours before the cheap seats fill up *)
        |> List.sort (fun a b -> compare (-weight a, a) (-weight b, b))
      in
      let cap_load = max 1 ((n + alive_count - 1) / alive_count) in
      let stuck = ref None in
      List.iter
        (fun t ->
          if !stuck = None then begin
            match
              evacuate static ctx.Ctx.dist degraded allowed feasible proc_of load cap_load t
            with
            | -1 ->
              stuck :=
                Some
                  (Printf.sprintf
                     "no feasible surviving processor for evacuated task %d" t)
            | p ->
              proc_of.(t) <- p;
              load.(p) <- load.(p) + 1
          end)
        evacuees;
      match !stuck with
      | Some e -> Error e
      | None ->
      (* evacuees may merge into surviving clusters when no processor
         is free; every phase is re-routed on the degraded view, since
         even unmoved traffic may have crossed a now-dead link *)
      match
        Pipeline.route ctx
          (Printf.sprintf "repair(%s)" m.Mapping.strategy)
          (Mapping.clusters proc_of)
      with
      | Error e -> Error ("repaired mapping failed validation: " ^ e)
      | Ok mapping ->
        let rp_moves =
          List.filter_map
            (fun t ->
              if before.(t) <> proc_of.(t) then
                Some { mv_task = t; mv_from = before.(t); mv_to = proc_of.(t) }
              else None)
            (List.init n Fun.id)
        in
        Ok { rp_mapping = mapping; rp_moves; rp_frozen = n - List.length rp_moves }
    end
  end
