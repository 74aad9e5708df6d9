module Taskgraph = Oregami_taskgraph.Taskgraph
module Phase_expr = Oregami_taskgraph.Phase_expr
module Digraph = Oregami_graph.Digraph
module Rng = Oregami_prelude.Rng

type family = Grid | Ring | Tree | Rmat

let families =
  [
    ("grid", "near-square 2-D grid, 4-neighbour stencil");
    ("ring", "ring with a half-turn chord");
    ("tree", "binary tree, child -> parent reports");
    ("rmat", "power-law R-MAT graph, ~8 edges/node, seeded");
  ]

let is_spec s = String.length s > 6 && String.sub s 0 6 = "synth:"

let family_of_string = function
  | "grid" -> Some Grid
  | "ring" -> Some Ring
  | "tree" -> Some Tree
  | "rmat" -> Some Rmat
  | _ -> None

let string_of_family = function
  | Grid -> "grid"
  | Ring -> "ring"
  | Tree -> "tree"
  | Rmat -> "rmat"

(* errors name the offending field: a batch file with hundreds of
   synth: specs is debugged from the message alone *)
let parse s =
  let fail fmt =
    Printf.ksprintf
      (fun m -> Error (Printf.sprintf "bad synthetic spec %S: %s" s m))
      fmt
  in
  let families_s = String.concat ", " (List.map fst families) in
  if not (is_spec s) then
    fail "want synth:FAMILY:N[:SEED], families: %s" families_s
  else begin
    match String.split_on_char ':' s with
    | [ _; fam; n ] | [ _; fam; n; _ ] as parts -> begin
      let ( let* ) = Result.bind in
      let* f =
        match family_of_string fam with
        | Some f -> Ok f
        | None -> fail "unknown family %S (families: %s)" fam families_s
      in
      let* n =
        match int_of_string_opt n with
        | Some n when n > Oregami_larcs.Compile.max_tasks ->
          fail "task count %d exceeds the cap %d" n Oregami_larcs.Compile.max_tasks
        | Some n when n > 0 -> Ok n
        | Some n -> fail "task count must be positive, got %d" n
        | None -> fail "task count %S is not an integer" n
      in
      let* seed =
        match parts with
        | [ _; _; _; sd ] -> begin
          match int_of_string_opt sd with
          | Some seed -> Ok seed
          | None -> fail "seed %S is not an integer" sd
        end
        | _ -> Ok 1
      in
      Ok (f, n, seed)
    end
    | parts ->
      fail "want synth:FAMILY:N[:SEED] (3 or 4 fields, got %d)" (List.length parts)
  end

let isqrt n =
  let r = int_of_float (sqrt (float_of_int n)) in
  let r = if (r + 1) * (r + 1) <= n then r + 1 else r in
  max 1 r

let grid_edges g n =
  let rows = isqrt n in
  let cols = (n + rows - 1) / rows in
  for v = 0 to n - 1 do
    let i = v / cols and j = v mod cols in
    if j + 1 < cols && v + 1 < n then Digraph.add_edge g v (v + 1);
    if i + 1 < rows && v + cols < n then Digraph.add_edge g v (v + cols)
  done

let ring_edges g n =
  for v = 0 to n - 1 do
    if n > 1 then Digraph.add_edge g v ((v + 1) mod n)
  done;
  if n > 3 then
    for v = 0 to n - 1 do
      let u = (v + (n / 2)) mod n in
      if u <> v && not (Digraph.mem_edge g v u) then Digraph.add_edge g v u
    done

let tree_edges g n =
  for v = 1 to n - 1 do
    Digraph.add_edge g v ((v - 1) / 2)
  done

(* R-MAT (Chakrabarti et al.): recursively pick a quadrant per bit with
   skewed probabilities; duplicate edges merge (volume accumulates),
   self-loops are redrawn a few times then dropped *)
let rmat_edges g n ~seed =
  let rng = Rng.create seed in
  let bits =
    let rec go b = if 1 lsl b >= n then b else go (b + 1) in
    go 0
  in
  let draw () =
    let u = ref 0 and v = ref 0 in
    for _ = 1 to bits do
      (* quadrant probabilities a=0.57 b=0.19 c=0.19 d=0.05;
         quadrants: a -> (0,0), b -> (0,1), c -> (1,0), d -> (1,1) *)
      let r = Rng.int rng 100 in
      let bu, bv =
        if r < 57 then (0, 0)
        else if r < 57 + 19 then (0, 1)
        else if r < 57 + 19 + 19 then (1, 0)
        else (1, 1)
      in
      u := (!u lsl 1) lor bu;
      v := (!v lsl 1) lor bv
    done;
    (!u, !v)
  in
  let edges = 8 * n in
  for _ = 1 to edges do
    let rec attempt tries =
      if tries = 0 then ()
      else begin
        let u, v = draw () in
        if u <> v && u < n && v < n then Digraph.add_edge g u v else attempt (tries - 1)
      end
    in
    attempt 4
  done

let generate family ~n ~seed =
  let g = Digraph.create n in
  (match family with
  | Grid -> grid_edges g n
  | Ring -> ring_edges g n
  | Tree -> tree_edges g n
  | Rmat -> rmat_edges g n ~seed);
  let costs = Array.make n 1 in
  let expr = Phase_expr.Seq (Phase_expr.Comm "comm", Phase_expr.Exec "work") in
  Taskgraph.make_exn
    ~name:(Printf.sprintf "synth:%s:%d" (string_of_family family) n)
    ~n
    ~comm_phases:[ ("comm", g) ]
    ~exec_phases:[ ("work", costs) ]
    ~expr ()

let build s =
  match parse s with
  | Error _ as e -> e
  | Ok (family, n, seed) -> Ok (generate family ~n ~seed)
