module Csr = Oregami_graph.Csr

(* Per-topology shared state.  One value is installed on the
   topology's cache slot and then shared by every domain mapping onto
   that topology, so every mutation follows a publish-once discipline:

   - [csr] and the arc table are filled before the state is installed
     and never written again;
   - [matrix] is built at most once, under [lock], and published
     through an [Atomic.t] (plain mutable fields carry no
     happens-before edge in the OCaml 5 memory model, so a reader on
     another domain could otherwise see the pointer without the
     initialised rows behind it);
   - [builds] is an atomic counter so tests can assert "built exactly
     once" even under a racing pool.

   Nothing per processor pair is stored: route queries read the
   published matrix and the arc table and take no lock. *)
type state = {
  n : int;
  csr : Csr.t;
  arc_off : int array; (* node x's arcs are [arc_off.(x), arc_off.(x + 1)) *)
  arc_to : int array; (* neighbour, ascending within each node *)
  arc_link : int array; (* link id of the arc *)
  matrix : int array Atomic.t; (* flat n*n hop matrix; [||] until built *)
  builds : int Atomic.t; (* how many times the matrix was computed *)
  lock : Mutex.t;
}

(* Handle with the matrix guaranteed built: [hop] stays a plain O(1)
   array read with no per-query synchronisation. *)
type t = { n : int; mat : int array; st : state }

type Topology.cache += Cache of state

let parallel_threshold = ref 256

(* Guards installation into the topology's cache slot, so two domains
   racing on a cold topology agree on one shared state value. *)
let slot_lock = Mutex.create ()

(* Links are numbered in lexicographic (low, high) endpoint order, so
   filling arcs in link order leaves every node's arcs ascending: first
   the lower neighbours (links (a, x), ascending a), then the higher
   ones (links (x, b), ascending b). *)
let fresh_state topo =
  let n = Topology.node_count topo and nl = Topology.link_count topo in
  let arc_off = Array.make (n + 1) 0 in
  for l = 0 to nl - 1 do
    let a, b = Topology.link_endpoints topo l in
    arc_off.(a + 1) <- arc_off.(a + 1) + 1;
    arc_off.(b + 1) <- arc_off.(b + 1) + 1
  done;
  for x = 1 to n do
    arc_off.(x) <- arc_off.(x) + arc_off.(x - 1)
  done;
  let fill = Array.sub arc_off 0 n in
  let arc_to = Array.make (2 * nl) 0 and arc_link = Array.make (2 * nl) 0 in
  let add x y l =
    let i = fill.(x) in
    arc_to.(i) <- y;
    arc_link.(i) <- l;
    fill.(x) <- i + 1
  in
  for l = 0 to nl - 1 do
    let a, b = Topology.link_endpoints topo l in
    add a b l;
    add b a l
  done;
  {
    n;
    csr = Csr.of_ugraph (Topology.graph topo);
    arc_off;
    arc_to;
    arc_link;
    matrix = Atomic.make [||];
    builds = Atomic.make 0;
    lock = Mutex.create ();
  }

let state topo =
  match Topology.get_cache topo with
  | Some (Cache c) -> c
  | Some _ | None ->
    Mutex.protect slot_lock (fun () ->
        (* double-check: another domain may have installed while we
           waited on the lock *)
        match Topology.get_cache topo with
        | Some (Cache c) -> c
        | Some _ | None ->
          let c = fresh_state topo in
          Topology.set_cache topo (Cache c);
          c)

let hops topo =
  let st = state topo in
  let mat =
    let m = Atomic.get st.matrix in
    if Array.length m > 0 || st.n = 0 then m
    else
      Mutex.protect st.lock (fun () ->
          let m = Atomic.get st.matrix in
          if Array.length m > 0 then m
          else begin
            Atomic.incr st.builds;
            let m =
              Csr.all_pairs_hops ~parallel:(st.n >= !parallel_threshold) st.csr
            in
            Atomic.set st.matrix m;
            m
          end)
  in
  { n = st.n; mat; st }

let hop c u v = c.mat.((u * c.n) + v)

let hop_builds topo =
  match Topology.get_cache topo with
  | Some (Cache st) -> Atomic.get st.builds
  | Some _ | None -> 0

(* The shortest routes from [u] to [v] are the walks that step to a
   neighbour one hop closer to [v]; taking those successors in
   ascending order lists them lexicographically by node path, exactly
   as Shortest.all_shortest_paths does.  [pick] builds the routes of
   that list, capped at [cap], that [Routes.stride ~want] keeps, and
   no others.

   One DFS walks the list in order while [pos] tracks the position of
   the next route it would reach.  A successor's routes form one block
   of positions; the DFS descends into it when the next wanted
   position is [pos] itself or lies inside it, and otherwise skips it
   by adding its size.  Only a skip needs a size, so [paths x] counts
   the routes from [x] to [v] on demand, saturating at [cap] and
   memoised per call since the DAG shares its nodes.  A saturated
   count is still exact for placement: every wanted position is below
   [cap], so a block of [cap] routes always holds it and is never
   skipped.  When every position is wanted (the full list) nothing is
   ever skipped and nothing is counted. *)
let pick c ~cap ~want u v =
  let st = c.st and n = c.n and mat = c.mat in
  (* the matrix is symmetric: row [v] holds every node's distance to
     [v] contiguously *)
  let row = v * n in
  (* nodes one or two hops from [v] are counted directly; only those
     further out are memoised, so short pairs allocate nothing *)
  let count = ref [||] in
  let rec paths x =
    let d = mat.(row + x) in
    if d <= 1 then 1
    else if d = 2 then sum x
    else begin
      if Array.length !count = 0 then count := Array.make n (-1);
      let memo = !count in
      if memo.(x) < 0 then memo.(x) <- sum x;
      memo.(x)
    end
  and sum x =
    let below = mat.(row + x) - 1 in
    let s = ref 0 and a = ref st.arc_off.(x) in
    while !s < cap && !a < st.arc_off.(x + 1) do
      let w = st.arc_to.(!a) in
      if mat.(row + w) = below then s := !s + paths w;
      incr a
    done;
    min cap !s
  in
  let total =
    if u = v then 1
    else if cap <= 0 || mat.(row + u) = Csr.unreachable then 0
    else if want >= cap then cap (* every position is wanted: a bound will do *)
    else paths u
  in
  let keep, position = Routes.stride ~want total in
  let out = ref [] and pos = ref 0 and kept = ref 0 in
  let rec go x nodes links =
    if x = v then begin
      out := { Routes.nodes = List.rev nodes; links = List.rev links } :: !out;
      incr pos;
      incr kept
    end
    else begin
      let below = mat.(row + x) - 1 in
      let a = ref st.arc_off.(x) in
      while !kept < keep && !a < st.arc_off.(x + 1) do
        let w = st.arc_to.(!a) in
        if mat.(row + w) = below then begin
          let next = position !kept in
          let skip =
            if next = !pos then 0
            else
              let k = paths w in
              if next < !pos + k then 0 else k
          in
          if skip = 0 then go w (w :: nodes) (st.arc_link.(!a) :: links)
          else pos := !pos + skip
        end;
        incr a
      done
    end
  in
  if keep > 0 then go u [ u ] [];
  List.rev !out

let routes ?(cap = 64) topo u v = pick (hops topo) ~cap ~want:max_int u v

let routes_sampled ?(cap = 64) ~want topo u v = pick (hops topo) ~cap ~want u v

let first_shortest topo u v =
  match pick (hops topo) ~cap:1 ~want:1 u v with
  | r :: _ -> r
  | [] -> invalid_arg "Distcache.deterministic: destination unreachable"

let deterministic topo u v =
  (* the kind-specific schemes assume the intact network: on a degraded
     view they would happily route across dead links, so fall back to a
     shortest route on the surviving graph *)
  if Topology.is_degraded topo then first_shortest topo u v
  else
    match Topology.kind topo with
    | Topology.Hypercube _ -> Routes.ecube topo u v
    | Topology.Mesh _ | Topology.Torus _ -> Routes.dimension_order topo u v
    | Topology.Line _ | Topology.Ring _ | Topology.Complete _ | Topology.Binary_tree _
    | Topology.Binomial_tree _ | Topology.Butterfly _ | Topology.Cube_connected_cycles _
    | Topology.Hex_mesh _ | Topology.Star_graph _ | Topology.De_bruijn _
    | Topology.Shuffle_exchange _ -> first_shortest topo u v
