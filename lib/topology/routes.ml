module Shortest = Oregami_graph.Shortest

type route = { nodes : int list; links : int list }

let of_nodes topo nodes = { nodes; links = Topology.links_of_path topo nodes }

let shortest_routes ?(cap = 64) topo u v =
  Shortest.all_shortest_paths ~cap (Topology.graph topo) u v
  |> List.map (of_nodes topo)

let route_table ?cap topo =
  let n = Topology.node_count topo in
  let tbl = Hashtbl.create (n * n) in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      Hashtbl.add tbl (u, v) (shortest_routes ?cap topo u v)
    done
  done;
  tbl

let ecube topo u v =
  if Topology.is_degraded topo then
    invalid_arg "Routes.ecube: degraded topology (e-cube routes may cross dead links)";
  match Topology.kind topo with
  | Topology.Hypercube d ->
    let rec go cur acc =
      if cur = v then List.rev acc
      else begin
        let diff = cur lxor v in
        let rec lowest b = if diff land (1 lsl b) <> 0 then b else lowest (b + 1) in
        let b = lowest 0 in
        if b >= d then invalid_arg "Routes.ecube: nodes out of range";
        let next = cur lxor (1 lsl b) in
        go next (next :: acc)
      end
    in
    of_nodes topo (go u [ u ])
  | Topology.Line _ | Topology.Ring _ | Topology.Mesh _ | Topology.Torus _
  | Topology.Complete _ | Topology.Binary_tree _ | Topology.Binomial_tree _
  | Topology.Butterfly _ | Topology.Cube_connected_cycles _ | Topology.Hex_mesh _
  | Topology.Star_graph _ | Topology.De_bruijn _ | Topology.Shuffle_exchange _ ->
    invalid_arg "Routes.ecube: not a hypercube"

let dimension_order topo u v =
  if Topology.is_degraded topo then
    invalid_arg
      "Routes.dimension_order: degraded topology (dimension-order routes may cross dead \
       links)";
  let step_towards wrap size cur dst =
    (* one step along a single dimension, the short way around if wrapped *)
    if cur = dst then cur
    else begin
      let fwd = (dst - cur + size) mod size and bwd = (cur - dst + size) mod size in
      if not wrap then if dst > cur then cur + 1 else cur - 1
      else if fwd <= bwd then (cur + 1) mod size
      else (cur - 1 + size) mod size
    end
  in
  match Topology.kind topo with
  | Topology.Mesh (r, c) | Topology.Torus (r, c) ->
    let wrap = match Topology.kind topo with Topology.Torus _ -> true | _ -> false in
    let wrap_r = wrap && r > 2 and wrap_c = wrap && c > 2 in
    let vi, vj = (v / c, v mod c) in
    let rec go (i, j) acc =
      if (i, j) = (vi, vj) then List.rev acc
      else begin
        let j' = step_towards wrap_c c j vj in
        let i' = if j' <> j then i else step_towards wrap_r r i vi in
        let node = (i' * c) + j' in
        go (i', j') (node :: acc)
      end
    in
    of_nodes topo (go (u / c, u mod c) [ u ])
  | Topology.Line _ | Topology.Ring _ | Topology.Hypercube _ | Topology.Complete _
  | Topology.Binary_tree _ | Topology.Binomial_tree _ | Topology.Butterfly _
  | Topology.Cube_connected_cycles _ | Topology.Hex_mesh _ | Topology.Star_graph _
  | Topology.De_bruijn _ | Topology.Shuffle_exchange _ ->
    invalid_arg "Routes.dimension_order: not a mesh or torus"

let hops r = List.length r.links

(* Deterministic stride sampling: keep [want] positions spread evenly
   across a (lexicographically ordered) candidate list of length [n]
   instead of its prefix, so a trimmed candidate set still covers the
   whole shortest-route DAG.  Position 0 is always kept, which
   preserves the "first candidate" every budget-exhaustion commit path
   relies on. *)
let stride ~want n =
  if want >= n then (n, Fun.id) else (max want 0, fun i -> i * n / want)

let sample_evenly ~want rs =
  let arr = Array.of_list rs in
  let keep, position = stride ~want (Array.length arr) in
  List.init keep (fun i -> arr.(position i))
