module Topology = Oregami_topology.Topology
module Gray = Oregami_topology.Gray

type t = { cluster_of : int array; proc_of_cluster : int array; note : string }

let is_pow2 v = v > 0 && v land (v - 1) = 0

let log2 v =
  let rec go v acc = if v <= 1 then acc else go (v / 2) (acc + 1) in
  go v 0

(* Balanced consecutive blocks: task i -> cluster i*k/n. *)
let block_contract n k = Array.init n (fun i -> i * k / n)

(* Processors of a topology in an order where consecutive entries are
   adjacent (up to the snake turns): the target order for ring/line
   style placements. *)
let linear_proc_order topo =
  let p = Topology.node_count topo in
  match Topology.kind topo with
  | Topology.Line _ | Topology.Ring _ -> Some (Array.init p (fun i -> i))
  | Topology.Mesh (_, c) | Topology.Torus (_, c) ->
    Some
      (Array.init p (fun rank ->
           let i = rank / c in
           let j = rank mod c in
           let j = if i mod 2 = 0 then j else c - 1 - j in
           (i * c) + j))
  | Topology.Hypercube d -> Some (Array.init p (fun rank -> Gray.rank_in_cube d rank))
  | Topology.Complete _ -> Some (Array.init p (fun i -> i))
  | Topology.Binary_tree _ | Topology.Binomial_tree _ | Topology.Butterfly _
  | Topology.Cube_connected_cycles _ | Topology.Hex_mesh _ | Topology.Star_graph _
  | Topology.De_bruijn _ | Topology.Shuffle_exchange _ ->
    None

let ring_like ~n topo note =
  match linear_proc_order topo with
  | None -> None
  | Some order ->
    let p = Array.length order in
    let k = min n p in
    Some
      {
        cluster_of = block_contract n k;
        proc_of_cluster = Array.init k (fun c -> order.(c));
        note;
      }

(* mesh tasks (R x C) tiled onto a mesh/torus of processors *)
let mesh_to_mesh ~rows ~cols ~prows ~pcols topo_nodes =
  if rows mod prows = 0 && cols mod pcols = 0 then begin
    let n = rows * cols in
    let th = rows / prows and tw = cols / pcols in
    let cluster_of =
      Array.init n (fun id ->
          let i = id / cols and j = id mod cols in
          ((i / th) * pcols) + (j / tw))
    in
    let k = prows * pcols in
    if k <= topo_nodes then
      Some (cluster_of, Array.init k (fun c -> c))
    else None
  end
  else None

let mesh_to_hypercube ~rows ~cols d =
  if not (is_pow2 rows && is_pow2 cols) then None
  else begin
    let rb = log2 rows and cb = log2 cols in
    if d > rb + cb then None
    else begin
      (* split the cube's d dimensions between the two mesh axes,
         as evenly as each axis' size allows *)
      let a = max (d - cb) (min rb ((d + 1) / 2)) in
      let b = d - a in
      let n = rows * cols in
      let th = rows / (1 lsl a) and tw = cols / (1 lsl b) in
      let cluster_of =
        Array.init n (fun id ->
            let i = id / cols and j = id mod cols in
            ((i / th) lsl b) lor (j / tw))
      in
      let k = 1 lsl (a + b) in
      let proc_of_cluster =
        Array.init k (fun cl ->
            let ti = cl lsr b and tj = cl land ((1 lsl b) - 1) in
            (Gray.rank_in_cube a ti lsl b) lor Gray.rank_in_cube b tj)
      in
      Some
        {
          cluster_of;
          proc_of_cluster;
          note = "canned: mesh tiles -> hypercube via per-axis Gray codes";
        }
    end
  end

(* inorder index of each node of a complete binary tree in heap
   numbering (root 0, children 2i+1 / 2i+2) *)
let inorder_indices n =
  let out = Array.make n 0 in
  let counter = ref 0 in
  let rec visit v =
    if v < n then begin
      visit ((2 * v) + 1);
      out.(v) <- !counter;
      incr counter;
      visit ((2 * v) + 2)
    end
  in
  visit 0;
  out

let lookup ?dims ~family ~n topo =
  let procs = Topology.node_count topo in
  if n <= 0 || procs <= 0 then None
  else
    match family with
    | "ring" -> ring_like ~n topo "canned: ring blocks along the topology's linear order"
    | "line" -> ring_like ~n topo "canned: line blocks along the topology's linear order"
    | "complete" ->
      let k = min n procs in
      Some
        {
          cluster_of = block_contract n k;
          proc_of_cluster = Array.init k (fun c -> c);
          note = "canned: complete graph (all placements equivalent)";
        }
    | "hypercube" ->
      if not (is_pow2 n) then None
      else begin
        let kbits = log2 n in
        match Topology.kind topo with
        | Topology.Hypercube d when d <= kbits ->
          let s = kbits - d in
          Some
            {
              cluster_of = Array.init n (fun i -> i lsr s);
              proc_of_cluster = Array.init (1 lsl d) (fun c -> c);
              note = "canned: hypercube subcubes -> hypercube (dilation 1)";
            }
        | Topology.Hypercube _ | Topology.Line _ | Topology.Ring _ | Topology.Mesh _
        | Topology.Torus _ | Topology.Complete _ | Topology.Binary_tree _
        | Topology.Binomial_tree _ | Topology.Butterfly _
        | Topology.Cube_connected_cycles _ | Topology.Hex_mesh _ | Topology.Star_graph _
        | Topology.De_bruijn _ | Topology.Shuffle_exchange _ -> None
      end
    | "binomial" ->
      if not (is_pow2 n) then None
      else begin
        let kbits = log2 n in
        match Topology.kind topo with
        | Topology.Hypercube d when d <= kbits ->
          let s = kbits - d in
          Some
            {
              cluster_of = Array.init n (fun i -> i lsr s);
              proc_of_cluster = Array.init (1 lsl d) (fun c -> c);
              note = "canned: binomial tree is a hypercube subgraph (dilation 1)";
            }
        | Topology.Mesh (r, c) when is_pow2 r && is_pow2 c && r * c <= n ->
          let kp = log2 (r * c) in
          let layout = Binomial_mesh.embed kp in
          let rows, cols = (layout.Binomial_mesh.rows, layout.Binomial_mesh.cols) in
          let orient =
            if rows = r && cols = c then Some (fun (i, j) -> (i * c) + j)
            else if rows = c && cols = r then Some (fun (i, j) -> (j * c) + i)
            else None
          in
          Option.map
            (fun place ->
              let s = kbits - kp in
              {
                cluster_of = Array.init n (fun i -> i lsr s);
                proc_of_cluster =
                  Array.init (1 lsl kp) (fun cl -> place layout.Binomial_mesh.pos.(cl));
                note = "canned: binomial tree -> mesh (recursive layout, avg dilation <= 1.2)";
              })
            orient
        | Topology.Hypercube _ | Topology.Mesh _ | Topology.Line _ | Topology.Ring _
        | Topology.Torus _ | Topology.Complete _ | Topology.Binary_tree _
        | Topology.Binomial_tree _ | Topology.Butterfly _
        | Topology.Cube_connected_cycles _ | Topology.Hex_mesh _ | Topology.Star_graph _
        | Topology.De_bruijn _ | Topology.Shuffle_exchange _ -> None
      end
    | "bintree" ->
      if not (is_pow2 (n + 1)) then None
      else begin
        match Topology.kind topo with
        | Topology.Hypercube d when 1 lsl d >= n ->
          let inorder = inorder_indices n in
          Some
            {
              cluster_of = Array.init n (fun i -> i);
              proc_of_cluster = Array.init n (fun v -> inorder.(v));
              note = "canned: binary tree -> hypercube via inorder labels (dilation <= 2)";
            }
        | Topology.Hypercube _ | Topology.Line _ | Topology.Ring _ | Topology.Mesh _
        | Topology.Torus _ | Topology.Complete _ | Topology.Binary_tree _
        | Topology.Binomial_tree _ | Topology.Butterfly _
        | Topology.Cube_connected_cycles _ | Topology.Hex_mesh _ | Topology.Star_graph _
        | Topology.De_bruijn _ | Topology.Shuffle_exchange _ -> None
      end
    | "mesh" | "torus" -> begin
      (* torus task graphs tile exactly like meshes; the Gray-code
         hypercube entry even keeps the wrap edges at dilation 1 *)
      let dims =
        match dims with
        | Some [ r; c ] -> Some (r, c)
        | Some _ -> None
        | None ->
          let rec sq r = if r * r >= n then r else sq (r + 1) in
          let r = sq 1 in
          if r * r = n then Some (r, r) else None
      in
      match dims with
      | None -> None
      | Some (rows, cols) when rows * cols = n -> begin
        match Topology.kind topo with
        | Topology.Mesh (pr, pc) | Topology.Torus (pr, pc) ->
          Option.map
            (fun (cluster_of, proc_of_cluster) ->
              { cluster_of; proc_of_cluster; note = "canned: mesh tiled onto mesh" })
            (mesh_to_mesh ~rows ~cols ~prows:pr ~pcols:pc procs)
        | Topology.Hypercube d -> mesh_to_hypercube ~rows ~cols d
        | Topology.Line _ | Topology.Ring _ | Topology.Complete _
        | Topology.Binary_tree _ | Topology.Binomial_tree _ | Topology.Butterfly _
        | Topology.Cube_connected_cycles _ | Topology.Hex_mesh _ | Topology.Star_graph _
        | Topology.De_bruijn _ | Topology.Shuffle_exchange _ -> None
      end
      | Some _ -> None
    end
    | _ -> None
