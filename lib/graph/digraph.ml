type t = {
  n : int;
  succ : (int * int) list array; (* insertion order, reversed internally *)
  pred : (int * int) list array;
  mutable edge_count : int;
}

let create n = { n; succ = Array.make n []; pred = Array.make n []; edge_count = 0 }

let node_count g = g.n

let edge_count g = g.edge_count

let check g u =
  if u < 0 || u >= g.n then
    invalid_arg (Printf.sprintf "Digraph: node %d out of [0,%d)" u g.n)

let add_edge ?(w = 1) g u v =
  check g u;
  check g v;
  g.succ.(u) <- (v, w) :: g.succ.(u);
  g.pred.(v) <- (u, w) :: g.pred.(v);
  g.edge_count <- g.edge_count + 1

let succ g u =
  check g u;
  List.rev g.succ.(u)

let pred g v =
  check g v;
  List.rev g.pred.(v)

let rec iter_pairs f = function
  | [] -> ()
  | (v, w) :: rest ->
    f v w;
    iter_pairs f rest

let iter_succ f g u =
  check g u;
  iter_pairs f g.succ.(u)

let out_degree g u =
  check g u;
  List.length g.succ.(u)

let in_degree g v =
  check g v;
  List.length g.pred.(v)

let weight g u v =
  check g u;
  check g v;
  List.fold_left (fun acc (v', w) -> if v' = v then acc + w else acc) 0 g.succ.(u)

let mem_edge g u v =
  check g u;
  check g v;
  List.exists (fun (v', _) -> v' = v) g.succ.(u)

let edges g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    List.iter (fun (v, w) -> acc := (u, v, w) :: !acc) g.succ.(u)
  done;
  !acc

let total_weight g =
  Array.fold_left (fun acc l -> List.fold_left (fun a (_, w) -> a + w) acc l) 0 g.succ

let of_edges n es =
  let g = create n in
  List.iter (fun (u, v, w) -> add_edge ~w g u v) es;
  g

let transpose g = of_edges g.n (List.map (fun (u, v, w) -> (v, u, w)) (edges g))

let copy g = of_edges g.n (edges g)

let union a b =
  if a.n <> b.n then invalid_arg "Digraph.union: node count mismatch";
  of_edges a.n (edges a @ edges b)

let to_undirected g =
  let u = Ugraph.create g.n in
  List.iter (fun (a, b, w) -> if a <> b then Ugraph.add_edge ~w u a b) (edges g);
  u

let aggregate g =
  (* total weight per ordered pair, for structural equality *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (u, v, w) ->
      let k = (u * g.n) + v in
      Hashtbl.replace tbl k (w + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    (edges g);
  Hashtbl.fold (fun k w acc -> if w = 0 then acc else (k, w) :: acc) tbl []
  |> List.sort compare

let equal a b = a.n = b.n && aggregate a = aggregate b

let pp fmt g =
  Format.fprintf fmt "@[<v>digraph %d nodes %d edges" g.n g.edge_count;
  List.iter (fun (u, v, w) -> Format.fprintf fmt "@,  %d -> %d (w=%d)" u v w) (edges g);
  Format.fprintf fmt "@]"
