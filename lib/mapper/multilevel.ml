module Taskgraph = Oregami_taskgraph.Taskgraph
module Coarsen = Oregami_taskgraph.Coarsen
module Topology = Oregami_topology.Topology
module Distcache = Oregami_topology.Distcache
module Ugraph = Oregami_graph.Ugraph
module Csr = Oregami_graph.Csr
module Rng = Oregami_prelude.Rng

let flat_sweet_spot = 2048

(* coarsest-placement effort thresholds.  NN-Embed costs about
   (k + p) * 2m operations on a k-cluster m-edge coarse graph over p
   processors, the pairwise Refine polish about p * 2m per round: on a
   sparse coarsest graph (grids) both are affordable at k = p = 1024,
   but a dense one (power-law R-MAT contracts towards a near-complete
   graph) blows the same k and p up by three orders of magnitude.
   Above the limits the identity embedding (which preserves the
   smallest-member numbering locality of the coarse ids) stands in;
   the projected per-level refinement below runs regardless. *)
let embed_limit = 4_000_000
let embed_op_limit = 200_000_000
let refine_pair_limit = 2_000_000
let refine_op_limit = 50_000_000
let refine_passes = 3

(* candidate processors evaluated per node move; the exact gain still
   sums over every neighbour, this only bounds the scan on hub nodes *)
let max_candidates = 24

type t = {
  ml_cluster_of : int array;
  ml_proc_of_cluster : int array;
  ml_levels : int;
}

let available ctx =
  let n = ctx.Ctx.tg.Taskgraph.n in
  let threshold = ctx.Ctx.options.Ctx.multilevel_threshold in
  if Ctx.constrained ctx then
    (* the projected per-level refinement moves tasks freely between
       processors; declining by name keeps the constraint contract *)
    Error "constraints present: multilevel refinement is constraint-unaware"
  else if n > threshold then Ok ()
  else if List.mem "multilevel" ctx.Ctx.options.Ctx.only then Ok ()
  else
    Error
      (Printf.sprintf
         "graph fits the flat strategies (%d <= %d tasks); force with --only multilevel"
         n threshold)

(* disconnected processor pairs must never look attractive *)
let hop dist u v =
  let h = Distcache.hop dist u v in
  if h >= Csr.unreachable then 1_000_000 else h

(* one level of delta-evaluated projected refinement: each node
   considers only the processors its neighbours occupy, gains are
   evaluated in O(degree) against the cached hop matrix, and a load
   cap keeps the balance the coarsening weight caps established *)
let refine_level ~dist ~budget ~p_alive ~nprocs ~attract (lv : Coarsen.level)
    assign moves gain =
  let n = lv.Coarsen.lv_n in
  let xadj = lv.Coarsen.lv_xadj
  and adj = lv.Coarsen.lv_adj
  and ew = lv.Coarsen.lv_ew
  and w = lv.Coarsen.lv_node_w in
  let load = Array.make nprocs 0 in
  let total_w = ref 0 in
  for v = 0 to n - 1 do
    load.(assign.(v)) <- load.(assign.(v)) + w.(v);
    total_w := !total_w + w.(v)
  done;
  let avg = (!total_w + p_alive - 1) / p_alive in
  (* balance cap: moves may not push a processor past ~110% of the
     average load.  A node heavier than the cap (common at the coarse
     levels, where nodes weigh about the average) gets a per-node
     allowance instead — it may only move to a processor empty enough
     to absorb it whole, so coarse moves never stack two near-average
     nodes and the coarsest placement's balance survives *)
  let cap = avg * 11 / 10 in
  let alive_budget = ref true in
  let pass = ref 0 in
  while !alive_budget && !pass < refine_passes do
    incr pass;
    let pass_moves = ref 0 in
    let v = ref 0 in
    while !alive_budget && !v < n do
      let u = !v in
      let d = xadj.(u + 1) - xadj.(u) in
      if d > 0 then begin
        if not (Budget.poll budget ~cost:(d + 1)) then begin
          Budget.note budget "multilevel-refine";
          alive_budget := false
        end
        else begin
          let touched = ref [] in
          for i = xadj.(u) to xadj.(u + 1) - 1 do
            let q = assign.(adj.(i)) in
            if attract.(q) = 0 then touched := q :: !touched;
            attract.(q) <- attract.(q) + ew.(i)
          done;
          let pu = assign.(u) in
          let cost_at p =
            List.fold_left (fun acc q -> acc + (attract.(q) * hop dist p q)) 0 !touched
          in
          let cur = cost_at pu in
          let candidates =
            let t = !touched in
            if List.length t <= max_candidates then t
            else begin
              let arr = Array.of_list t in
              (* most-attractive first; ties to the smaller proc id *)
              Array.sort
                (fun a b ->
                  match compare attract.(b) attract.(a) with
                  | 0 -> compare a b
                  | c -> c)
                arr;
              Array.to_list (Array.sub arr 0 max_candidates)
            end
          in
          (* a move may never empty its source processor: emptied
             processors are unreachable to later passes (candidates
             come from neighbours), so emptying trades balance away
             permanently for a one-off communication gain *)
          let movable = load.(pu) > w.(u) in
          (* an over-cap processor sheds its boundary nodes even at a
             communication regression — take the least-bad feasible
             move; comm-driven passes cannot drain it otherwise *)
          let overloaded = load.(pu) > cap in
          let best = ref pu
          and bestc = ref (if overloaded then max_int else cur)
          and bestl = ref load.(pu) in
          if movable then
            List.iter
              (fun q ->
                if q <> pu && load.(q) + w.(u) <= max cap w.(u) then begin
                  let c = cost_at q in
                  let l = load.(q) + w.(u) in
                  (* minimise (comm cost, destination load, proc id):
                     equal-cost moves still drain overloaded procs *)
                  if
                    c < !bestc
                    || (c = !bestc && (l < !bestl || (l = !bestl && q < !best)))
                  then begin
                    best := q;
                    bestc := c;
                    bestl := l
                  end
                end)
              candidates;
          if !best <> pu then begin
            load.(pu) <- load.(pu) - w.(u);
            load.(!best) <- load.(!best) + w.(u);
            assign.(u) <- !best;
            incr moves;
            incr pass_moves;
            gain := !gain + (cur - !bestc)
          end;
          List.iter (fun q -> attract.(q) <- 0) !touched
        end
      end;
      incr v
    done;
    if !pass_moves = 0 then pass := refine_passes
  done

let run ctx =
  let tg = ctx.Ctx.tg in
  let n = tg.Taskgraph.n in
  let topo = ctx.Ctx.topo in
  let dist = ctx.Ctx.dist in
  let alive = ctx.Ctx.alive in
  let p = Array.length alive in
  if p = 0 then Error "no alive processors"
  else begin
    let budget = ctx.Ctx.budget in
    let stats = ctx.Ctx.stats in
    (* node weight = total execution cost (minimum 1, so idle tasks
       still count against the balance caps) *)
    let node_w = Array.make n 0 in
    List.iter
      (fun (ep : Taskgraph.exec_phase) ->
        Array.iteri (fun t c -> node_w.(t) <- node_w.(t) + c) ep.Taskgraph.costs)
      tg.Taskgraph.exec_phases;
    Array.iteri (fun t wv -> if wv <= 0 then node_w.(t) <- 1) node_w;
    let finest = Coarsen.of_ugraph ~node_weight:node_w (Ctx.static ctx) in
    let rng = Rng.split ctx.Ctx.rng in
    let poll cost = Budget.poll budget ~cost in
    let hier = Coarsen.coarsen ~poll ~rng ~target:p finest in
    if hier.Coarsen.truncated then Budget.note budget "multilevel-coarsen";
    let levels = hier.Coarsen.levels in
    let nl = Array.length levels in
    Stats.bump stats "multilevel levels" nl;
    Array.iteri
      (fun i lv ->
        Stats.bump stats (Printf.sprintf "multilevel level %d nodes" i) lv.Coarsen.lv_n;
        Stats.add_matching_rounds stats lv.Coarsen.lv_rounds)
      levels;
    let coarsest = levels.(nl - 1) in
    let k = coarsest.Coarsen.lv_n in
    let nprocs = Topology.node_count topo in
    (* coarsest placement: the compete tier in miniature — NN-Embed
       (plus the pairwise Refine polish) when the scan is affordable,
       the locality-preserving identity embedding otherwise *)
    let proc_of_coarse =
      let identity () = Array.init k (fun i -> alive.(i)) in
      if k * p > embed_limit then identity ()
      else begin
        let cg = Coarsen.level_ugraph coarsest in
        let m = Ugraph.edge_count cg in
        if m = 0 || (k + p) * 2 * m > embed_op_limit then identity ()
        else begin
          let emb = Nn_embed.embed ~budget cg topo in
          if
            ctx.Ctx.options.Ctx.refine
            && k * p <= refine_pair_limit
            && p * 2 * m <= refine_op_limit
          then begin
            let swaps = ref 0 in
            (* a big coarsest graph gets a short polish: the projected
               per-level refinement recovers most of the remaining gain
               at a fraction of the pairwise sweep's cost *)
            let max_rounds = if k * p > refine_pair_limit / 4 then 2 else 10 in
            let r = Refine.improve_embedding ~max_rounds ~budget ~swaps cg topo emb in
            Stats.add_refine_swaps stats !swaps;
            r
          end
          else emb
        end
      end
    in
    Stats.bump stats "multilevel coarsest nodes" k;
    (* uncoarsen: project one level down, then refine in place *)
    let attract = Array.make nprocs 0 in
    let moves = ref 0 and gain = ref 0 in
    let assign = ref (Array.copy proc_of_coarse) in
    refine_level ~dist ~budget ~p_alive:p ~nprocs ~attract coarsest !assign moves gain;
    for i = nl - 2 downto 0 do
      let map = hier.Coarsen.maps.(i) in
      let finer = levels.(i) in
      let a = Array.init finer.Coarsen.lv_n (fun v -> !assign.(map.(v))) in
      refine_level ~dist ~budget ~p_alive:p ~nprocs ~attract finer a moves gain;
      assign := a
    done;
    Stats.bump stats "multilevel refine moves" !moves;
    Stats.bump stats "multilevel refine gain" !gain;
    let cluster_of, proc_of_cluster = Mapping.clusters !assign in
    Ok { ml_cluster_of = cluster_of; ml_proc_of_cluster = proc_of_cluster; ml_levels = nl }
  end
