module Taskgraph = Oregami_taskgraph.Taskgraph
module Topology = Oregami_topology.Topology
module Routes = Oregami_topology.Routes
module Distcache = Oregami_topology.Distcache
module Digraph = Oregami_graph.Digraph
module Bipartite = Oregami_matching.Bipartite
module Pool = Oregami_prelude.Pool

type stats = { phases : (string * int) list }

(* A candidate carries its link sequence as an array so committing hop
   [h] indexes in O(1) instead of List.nth's O(h). *)
type candidate = { cand_route : Routes.route; cand_links : int array }

type pending = {
  msg_src : int;  (** task *)
  msg_dst : int;
  msg_volume : int;
  mutable candidates : candidate list;  (** share the committed prefix *)
  mutable committed : int;  (** hops fixed so far *)
}

let candidate r = { cand_route = r; cand_links = Array.of_list r.Routes.links }

let route_length c = Array.length c.cand_links

let nth_link c h = c.cand_links.(h)

let phase_messages ~candidates proc_of_task (cp : Taskgraph.comm_phase) =
  Digraph.edges cp.Taskgraph.edges
  |> List.filter (fun (u, v, _) -> u <> v)
  |> List.map (fun (u, v, w) ->
         let pu = proc_of_task.(u) and pv = proc_of_task.(v) in
         let candidates =
           if pu = pv then [ candidate { Routes.nodes = [ pu ]; links = [] } ]
           else candidates pu pv
         in
         { msg_src = u; msg_dst = v; msg_volume = w; candidates; committed = 0 })

(* An exhausted budget stops contention-aware routing: every message
   still in flight commits its first remaining candidate wholesale.
   The candidate list is always filtered to routes sharing the
   committed prefix, so the result is a complete, link-consistent
   route — just not a congestion-minimizing one. *)
let commit_first m =
  match m.candidates with
  | [] -> ()
  | c :: _ ->
    m.candidates <- [ c ];
    m.committed <- route_length c

(* One phase: commit links hop by hop with maximal-matching rounds. *)
let route_phase ~budget topo messages =
  let nlinks = Topology.link_count topo in
  let rounds = ref 0 in
  let unfinished () =
    (* a message with no candidates at all (unreachable destination on a
       partitioned machine) is left unrouted; validation downstream
       rejects the mapping with a named error instead of crashing here *)
    List.filter
      (fun m ->
        match m.candidates with
        | [] -> false
        | c :: _ -> m.committed < route_length c)
      messages
  in
  let rec hop () =
    match unfinished () with
    | [] -> ()
    | pending when not (Budget.poll budget ~cost:(List.length pending)) ->
      Budget.note budget "mm-route";
      List.iter commit_first pending
    | pending ->
      (* all messages at the same committed depth: those with the
         shortest remaining work still appear; we advance every
         unfinished message by one hop before moving on *)
      let arr = Array.of_list pending in
      let unassigned = ref (Array.to_list (Array.init (Array.length arr) (fun i -> i))) in
      while !unassigned <> [] do
        incr rounds;
        if not (Budget.poll budget ~cost:(List.length !unassigned)) then begin
          Budget.note budget "mm-route";
          List.iter (fun mi -> commit_first arr.(mi)) !unassigned;
          unassigned := []
        end
        else begin
        let xs = Array.of_list !unassigned in
        let edges = ref [] in
        Array.iteri
          (fun xi mi ->
            let m = arr.(mi) in
            let usable =
              List.filter_map
                (fun r ->
                  if route_length r > m.committed then Some (nth_link r m.committed)
                  else None)
                m.candidates
              |> List.sort_uniq compare
            in
            List.iter (fun l -> edges := (xi, l) :: !edges) usable)
          xs;
        let matching =
          Bipartite.greedy_maximal ~nx:(Array.length xs) ~ny:nlinks (List.rev !edges)
        in
        let next_unassigned = ref [] in
        Array.iteri
          (fun xi mi ->
            let m = arr.(mi) in
            match matching.Bipartite.pair_x.(xi) with
            | -1 ->
              (* no free link this round: if the message has candidate
                 links at all it waits for the next round; otherwise it
                 is stuck (cannot happen: usable is non-empty for
                 unfinished messages) *)
              next_unassigned := mi :: !next_unassigned
            | link ->
              m.candidates <-
                List.filter
                  (fun r -> route_length r > m.committed && nth_link r m.committed = link)
                  m.candidates;
              m.committed <- m.committed + 1)
          xs;
        unassigned := List.rev !next_unassigned
        end
      done;
      hop ()
  in
  hop ();
  (!rounds, messages)

let mm_route ?budget ?(cap = 64) tg topo ~proc_of_task =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  (* many messages share a processor pair: build each distinct (pair,
     cap) candidate list once per call.  Candidates are immutable, so
     messages can share them. *)
  let nprocs = Topology.node_count topo in
  let shared = Hashtbl.create 64 in
  let candidates cap pu pv =
    let key = (cap, (pu * nprocs) + pv) in
    match Hashtbl.find_opt shared key with
    | Some cs -> cs
    | None ->
      let cs = List.map candidate (Distcache.routes ~cap topo pu pv) in
      Hashtbl.add shared key cs;
      cs
  in
  let results =
    List.map
      (fun (cp : Taskgraph.comm_phase) ->
        (* once the budget is dead, skip multi-route enumeration too:
           one shortest route per pair is all the commit path needs *)
        let cap =
          if Budget.exhausted budget then begin
            Budget.note budget "mm-route";
            1
          end
          else cap
        in
        let messages = phase_messages ~candidates:(candidates cap) proc_of_task cp in
        let rounds, messages = route_phase ~budget topo messages in
        let pr_edges =
          List.map
            (fun m ->
              let route =
                match m.candidates with
                | c :: _ -> c.cand_route
                | [] -> { Routes.nodes = []; links = [] }
              in
              {
                Mapping.re_src = m.msg_src;
                re_dst = m.msg_dst;
                re_volume = m.msg_volume;
                re_route =
                  (if proc_of_task.(m.msg_src) = proc_of_task.(m.msg_dst) then
                     { Routes.nodes = [ proc_of_task.(m.msg_src) ]; links = [] }
                   else route);
              })
            messages
        in
        ({ Mapping.pr_phase = cp.Taskgraph.cp_name; pr_edges }, (cp.Taskgraph.cp_name, rounds)))
      tg.Taskgraph.comm_phases
  in
  (List.map fst results, { phases = List.map snd results })

(* ------------------------------------------------------------------ *)
(* Coarse routing: traffic-aggregated MM-Route for the large tier.

   After contraction most messages of a phase share a processor pair,
   so instead of matching ~70k raw messages hop by hop we route each
   unique (src_proc, dst_proc) demand once, weighted by its message
   multiplicity (which is exactly what per-phase link contention
   counts), and fan the chosen route back out to the original
   messages.  Candidates are scored against an incremental per-link
   load array — congestion delta in O(route length) — so no matching
   graph is ever built. *)

type coarse_stats = {
  co_phases : (string * int) list;
  co_pairs : int;
  co_messages : int;
}

(* Even the lightest pair sees a handful of spread-out candidates;
   without a floor, tail pairs would all take the lexicographically
   first route and pile onto the same early links. *)
let min_coarse_candidates = 4

(* Local re-route sweeps after the greedy pass.  Convergence is fast:
   sweeps stop early as soon as one changes nothing. *)
let max_coarse_rounds = 4

type demand = {
  d_src : int;  (** processor *)
  d_dst : int;
  d_weight : int;  (** message multiplicity *)
  d_candidates : candidate array;
  mutable d_choice : int;  (** index into [d_candidates]; -1 = none *)
}

let coarse_phase ~budget ~cap topo proc_of_task (cp : Taskgraph.comm_phase) =
  let msgs =
    Digraph.edges cp.Taskgraph.edges |> List.filter (fun (u, v, _) -> u <> v)
  in
  let nprocs = Topology.node_count topo in
  (* aggregate: unique cross-processor pairs with message counts *)
  let weight = Hashtbl.create 64 in
  List.iter
    (fun (u, v, _) ->
      let pu = proc_of_task.(u) and pv = proc_of_task.(v) in
      if pu <> pv then begin
        let key = (pu * nprocs) + pv in
        let w = match Hashtbl.find_opt weight key with Some w -> w | None -> 0 in
        Hashtbl.replace weight key (w + 1)
      end)
    msgs;
  (* heaviest demand first so the hot pairs pick their routes against
     an empty network; ties broken by pair id for determinism *)
  let pairs =
    Hashtbl.fold (fun key w acc -> (key, w) :: acc) weight []
    |> List.sort (fun (k1, w1) (k2, w2) ->
           if w1 <> w2 then compare w2 w1 else compare k1 k2)
  in
  let wmax = List.fold_left (fun acc (_, w) -> max acc w) 1 pairs in
  let demands =
    List.map
      (fun (key, w) ->
        let pu = key / nprocs and pv = key mod nprocs in
        (* traffic-weighted sampling: hot pairs keep the full candidate
           spread, light pairs are scored against a stride sample *)
        let want = min cap (max min_coarse_candidates (cap * w / wmax)) in
        let cands =
          Distcache.routes_sampled ~cap ~want topo pu pv
          |> List.map candidate |> Array.of_list
        in
        { d_src = pu; d_dst = pv; d_weight = w; d_candidates = cands;
          d_choice = -1 })
      pairs
  in
  let nlinks = Topology.link_count topo in
  let load = Array.make (max 1 nlinks) 0 in
  let apply d sign =
    if d.d_choice >= 0 then
      Array.iter
        (fun l -> load.(l) <- load.(l) + (sign * d.d_weight))
        d.d_candidates.(d.d_choice).cand_links
  in
  let cand_cost d =
    Array.fold_left (fun acc c -> acc + route_length c) 1 d.d_candidates
  in
  (* best candidate under the current load: smallest bottleneck after
     adding this demand, then smallest total load along the route, then
     lowest index — all candidates are shortest routes, so hop count
     never differs *)
  let best d =
    let best_i = ref (-1) and best_max = ref max_int and best_sum = ref max_int in
    Array.iteri
      (fun i c ->
        let mx = ref 0 and sm = ref 0 in
        Array.iter
          (fun l ->
            let after = load.(l) + d.d_weight in
            if after > !mx then mx := after;
            sm := !sm + load.(l))
          c.cand_links;
        if !mx < !best_max || (!mx = !best_max && !sm < !best_sum) then begin
          best_i := i;
          best_max := !mx;
          best_sum := !sm
        end)
      d.d_candidates;
    !best_i
  in
  (* a dead budget degrades exactly like mm_route's commit_first: every
     remaining pair takes its first candidate, routes stay complete *)
  let commit_rest rest =
    Budget.note budget "coarse-route";
    List.iter
      (fun d ->
        if d.d_choice < 0 && Array.length d.d_candidates > 0 then begin
          d.d_choice <- 0;
          apply d 1
        end)
      rest
  in
  let rec greedy = function
    | [] -> ()
    | d :: rest ->
      if not (Budget.poll budget ~cost:(cand_cost d)) then commit_rest (d :: rest)
      else begin
        if Array.length d.d_candidates > 0 then begin
          d.d_choice <- best d;
          apply d 1
        end;
        greedy rest
      end
  in
  greedy demands;
  let rounds = ref 0 in
  (try
     let improving = ref (not (Budget.exhausted budget)) in
     while !improving && !rounds < max_coarse_rounds do
       incr rounds;
       let changed = ref false in
       List.iter
         (fun d ->
           if Array.length d.d_candidates > 1 then begin
             if not (Budget.poll budget ~cost:(cand_cost d)) then begin
               Budget.note budget "coarse-route";
               raise Exit
             end;
             (* un-commit, re-pick against everyone else, re-commit *)
             apply d (-1);
             let c = best d in
             if c <> d.d_choice then changed := true;
             d.d_choice <- c;
             apply d 1
           end)
         demands;
       if not !changed then improving := false
     done
   with Exit -> ());
  (* deterministic fan-out: every original message takes its pair's
     chosen route; co-located messages get the empty route, pairs that
     are unreachable on a partitioned machine stay unrouted so
     validation rejects the mapping with a named error (same contract
     as mm_route) *)
  let chosen = Hashtbl.create (List.length demands) in
  List.iter
    (fun d ->
      let r =
        if d.d_choice >= 0 then d.d_candidates.(d.d_choice).cand_route
        else { Routes.nodes = []; links = [] }
      in
      Hashtbl.replace chosen ((d.d_src * nprocs) + d.d_dst) r)
    demands;
  let pr_edges =
    List.map
      (fun (u, v, w) ->
        let pu = proc_of_task.(u) and pv = proc_of_task.(v) in
        let route =
          if pu = pv then { Routes.nodes = [ pu ]; links = [] }
          else Hashtbl.find chosen ((pu * nprocs) + pv)
        in
        { Mapping.re_src = u; re_dst = v; re_volume = w; re_route = route })
      msgs
  in
  ( { Mapping.pr_phase = cp.Taskgraph.cp_name; pr_edges },
    !rounds,
    List.length demands,
    List.length msgs )

let coarse_route ?budget ?(cap = 64) ?(jobs = 1) tg topo ~proc_of_task =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let phases = Array.of_list tg.Taskgraph.comm_phases in
  let run ~budget cp =
    let cap =
      if Budget.exhausted budget then begin
        Budget.note budget "coarse-route";
        1
      end
      else cap
    in
    coarse_phase ~budget ~cap topo proc_of_task cp
  in
  let results =
    if jobs > 1 && Array.length phases > 1 && not (Budget.limited budget)
    then begin
      (* Independent phases route concurrently.  The shared budget is a
         plain mutable record (not domain-safe), so this path only runs
         when it is unlimited: each phase task gets its own unlimited
         meter, whose fuel is folded back in phase order below — the
         run's [fuel_used] comes out identical to a sequential run, and
         [Pool.map]'s ordered results keep the output byte-identical at
         any jobs width. *)
      let out =
        Pool.map ~jobs
          (fun cp ->
            let local = Budget.unlimited () in
            let r = run ~budget:local cp in
            (r, Budget.fuel_used local))
          phases
      in
      Array.iter (fun (_, fuel) -> ignore (Budget.poll budget ~cost:fuel)) out;
      Array.to_list (Array.map fst out)
    end
    else Array.to_list (Array.map (fun cp -> run ~budget cp) phases)
  in
  let prs = List.map (fun (pr, _, _, _) -> pr) results in
  let stats =
    {
      co_phases =
        List.map2
          (fun (cp : Taskgraph.comm_phase) (_, r, _, _) ->
            (cp.Taskgraph.cp_name, r))
          tg.Taskgraph.comm_phases results;
      co_pairs = List.fold_left (fun acc (_, _, p, _) -> acc + p) 0 results;
      co_messages = List.fold_left (fun acc (_, _, _, m) -> acc + m) 0 results;
    }
  in
  (prs, stats)

let deterministic_route tg topo ~proc_of_task =
  List.map
    (fun (cp : Taskgraph.comm_phase) ->
      let pr_edges =
        Digraph.edges cp.Taskgraph.edges
        |> List.filter (fun (u, v, _) -> u <> v)
        |> List.map (fun (u, v, w) ->
               let pu = proc_of_task.(u) and pv = proc_of_task.(v) in
               let route =
                 if pu = pv then { Routes.nodes = [ pu ]; links = [] }
                 else Distcache.deterministic topo pu pv
               in
               { Mapping.re_src = u; re_dst = v; re_volume = w; re_route = route })
      in
      { Mapping.pr_phase = cp.Taskgraph.cp_name; pr_edges })
    tg.Taskgraph.comm_phases
