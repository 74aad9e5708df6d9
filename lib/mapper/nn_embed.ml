module Ugraph = Oregami_graph.Ugraph
module Topology = Oregami_topology.Topology
module Distcache = Oregami_topology.Distcache

let weighted_hops cg topo proc_of_cluster =
  let dc = Distcache.hops topo in
  List.fold_left
    (fun acc (a, b, w) ->
      acc + (w * Distcache.hop dc proc_of_cluster.(a) proc_of_cluster.(b)))
    0 (Ugraph.edges cg)

let placed_cost dc g proc_of v p =
  List.fold_left
    (fun acc (d, w) ->
      if d <> v && proc_of.(d) >= 0 then acc + (w * Distcache.hop dc p proc_of.(d)) else acc)
    0 (Ugraph.neighbors g v)

let cheapest ~eligible ~cost ~load ~cap =
  let best = ref (-1) and best_cost = ref 0 and best_load = ref 0 in
  for p = 0 to Array.length load - 1 do
    if load.(p) < cap && eligible p then begin
      let c = cost p in
      (* ascending ids: a later processor wins only a strict improvement *)
      if !best < 0 || c < !best_cost || (c = !best_cost && load.(p) < !best_load) then begin
        best := p;
        best_cost := c;
        best_load := load.(p)
      end
    end
  done;
  !best

exception Infeasible of string

let embed ?budget ?fixed ?allowed cg topo =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let k = Ugraph.node_count cg in
  let p = Topology.node_count topo in
  (* dead processors of a degraded topology are not placement targets *)
  let alive = Topology.alive topo in
  if k > Topology.alive_count topo then
    invalid_arg "Nn_embed: more clusters than alive processors";
  (* [may c v] filters candidate processors per cluster, [fixed]
     pre-places pinned clusters; without them every alive processor
     qualifies *)
  let constrained = fixed <> None || allowed <> None in
  let may = match allowed with Some f -> f | None -> fun _ _ -> true in
  let dc = Distcache.hops topo in
  let proc_of = Array.make k (-1) in
  (* a used processor carries load 1, so [cheapest ~cap:1] only offers
     free ones and the embedding stays injective *)
  let used = Array.make p 0 in
  let place cluster proc =
    proc_of.(cluster) <- proc;
    used.(proc) <- 1
  in
  (match fixed with
  | None -> ()
  | Some fx ->
    if Array.length fx <> k then invalid_arg "Nn_embed: fixed must cover every cluster";
    Array.iteri
      (fun c pr ->
        if pr >= 0 then begin
          if not (alive pr) then
            raise (Infeasible (Printf.sprintf "cluster %d pinned to dead processor %d" c pr));
          if used.(pr) > 0 then
            raise
              (Infeasible (Printf.sprintf "two clusters pinned to processor %d" pr));
          place c pr
        end)
      fx);
  (* the free processor cluster [c] accepts at the least [cost] *)
  let place_cheapest c ~cost =
    match cheapest ~eligible:(fun v -> alive v && may c v) ~cost ~load:used ~cap:1 with
    | -1 -> raise (Infeasible (Printf.sprintf "no feasible processor for cluster %d" c))
    | v -> place c v
  in
  let place_first_free c = place_cheapest c ~cost:(fun _ -> 0) in
  (* seed: heaviest edge on a max-degree processor and its neighbour *)
  let heaviest =
    List.fold_left
      (fun acc (a, b, w) ->
        match acc with
        | Some (bw, _, _) when bw >= w -> acc
        | Some _ | None -> Some (w, a, b))
      None (Ugraph.edges cg)
  in
  let tg = Topology.graph topo in
  (match heaviest with
  | Some (_, a, b) ->
    (* costing a processor by its negated degree picks a max-degree one *)
    if proc_of.(a) = -1 then place_cheapest a ~cost:(fun v -> -Ugraph.degree tg v);
    (* The partner has two forms.  Unconstrained runs put it on the
       seed processor's first neighbour in adjacency order, as the
       mapper always has; constrained runs leave it to the growth scan
       below, because that neighbour may be forbidden or pinned away.
       The scan would take the lowest-numbered neighbour instead of
       the first in adjacency order.  Refinement usually absorbs the
       difference, but not when a budget stops it early, so folding
       the two together would move unconstrained mappings. *)
    if (not constrained) && k > 1 then begin
      let seed_proc = proc_of.(a) in
      let neighbour =
        (* on a degraded topology every neighbour of an alive processor
           is alive (dead nodes keep no links) *)
        match Ugraph.neighbors tg seed_proc with
        | (v, _) :: _ -> v
        | [] ->
          let v = ref ((seed_proc + 1) mod p) in
          while not (alive !v) do v := (!v + 1) mod p done;
          !v
      in
      place b neighbour
    end
  | None -> if k > 0 && proc_of.(0) = -1 then place_first_free 0);
  (* grow: most-communicating unplaced cluster onto the cheapest free
     processor *)
  let remaining () =
    let out = ref [] in
    for c = k - 1 downto 0 do
      if proc_of.(c) = -1 then out := c :: !out
    done;
    !out
  in
  let rec grow () =
    match remaining () with
    | [] -> ()
    | unplaced when not (Budget.poll budget ~cost:(List.length unplaced + p)) ->
      (* anytime completion: drop the attraction/cost scans and stream
         the remaining clusters onto the first free processors *)
      Budget.note budget "nn-embed";
      List.iter place_first_free unplaced
    | unplaced ->
      let attraction c =
        List.fold_left
          (fun acc (d, w) -> if proc_of.(d) <> -1 then acc + w else acc)
          0 (Ugraph.neighbors cg c)
      in
      let next =
        List.fold_left
          (fun acc c ->
            match acc with
            | Some (ba, _) when ba >= attraction c -> acc
            | Some _ | None -> Some (attraction c, c))
          None unplaced
      in
      (match next with
      | None -> ()
      | Some (_, c) -> place_cheapest c ~cost:(placed_cost dc cg proc_of c));
      grow ()
  in
  grow ();
  proc_of
