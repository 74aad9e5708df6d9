module Ugraph = Oregami_graph.Ugraph
module Topology = Oregami_topology.Topology
module Distcache = Oregami_topology.Distcache

let improve_embedding ?(max_rounds = 10) ?budget ?swaps ?allowed cg topo
    proc_of_cluster =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let may = match allowed with Some f -> f | None -> fun _ _ -> true in
  let accepted () = match swaps with Some r -> incr r | None -> () in
  let k = Ugraph.node_count cg in
  let p = Topology.node_count topo in
  let dc = Distcache.hops topo in
  let proc_of = Array.copy proc_of_cluster in
  (* cost contribution of one cluster under a tentative processor,
     against the current positions of the others *)
  let cost = Nn_embed.placed_cost dc cg proc_of in
  let occupant = Array.make p (-1) in
  Array.iteri (fun c pr -> occupant.(pr) <- c) proc_of;
  let improved = ref true in
  let rounds = ref 0 in
  (* hill climbing is the definitional anytime pass: the embedding is
     valid after every accepted move, so on exhaustion we just stop *)
  let dead = ref false in
  while !improved && (not !dead) && !rounds < max_rounds do
    improved := false;
    incr rounds;
    for c = 0 to k - 1 do
      if (not !dead) && not (Budget.poll budget ~cost:p) then begin
        dead := true;
        Budget.note budget "refine"
      end;
      if not !dead then
      for target = 0 to p - 1 do
        let pc = proc_of.(c) in
        (* never move a cluster onto a dead processor of a degraded
           topology (swaps with an occupant are fine: occupied
           processors are alive by construction) *)
        if target <> pc && Topology.alive topo target then begin
          match occupant.(target) with
          | -1 ->
            (* move c to a free processor *)
            let before = cost c pc in
            let after = cost c target in
            if after < before && may c target then begin
              occupant.(pc) <- -1;
              occupant.(target) <- c;
              proc_of.(c) <- target;
              improved := true;
              accepted ()
            end
          | d ->
            (* swap clusters c and d; edge c-d keeps its length *)
            let pd = target in
            let before = cost c pc + cost d pd in
            proc_of.(c) <- pd;
            proc_of.(d) <- pc;
            let after = cost c pd + cost d pc in
            if after < before && may c pd && may d pc then begin
              occupant.(pc) <- d;
              occupant.(pd) <- c;
              improved := true;
              accepted ()
            end
            else begin
              proc_of.(c) <- pc;
              proc_of.(d) <- pd
            end
        end
      done
    done
  done;
  proc_of
