module Ugraph = Oregami_graph.Ugraph
module Traverse = Oregami_graph.Traverse

type kind =
  | Line of int
  | Ring of int
  | Mesh of int * int
  | Torus of int * int
  | Hypercube of int
  | Complete of int
  | Binary_tree of int
  | Binomial_tree of int
  | Butterfly of int
  | Cube_connected_cycles of int
  | Hex_mesh of int * int
  | Star_graph of int
  | De_bruijn of int
  | Shuffle_exchange of int

type cache = ..

let default_class = "compute"

type t = {
  kind : kind;
  graph : Ugraph.t;
  links : (int * int) array;
  link_ids : (int * int, int) Hashtbl.t;
  classes : string array;
      (* classes.(u) is processor [u]'s capability class; all
         [default_class] for homogeneous machines.  Preserved verbatim
         by [degrade] so fault views keep their class tags. *)
  dead : bool array;
      (* dead.(u) marks a failed processor; its links are absent from
         [graph]/[links].  All-false for pristine topologies. *)
  cut_links : int;
      (* links removed beyond those implied by dead processors *)
  cache : cache option Atomic.t;
      (* populated lazily by Distcache; topologies are immutable after
         [make] / [degrade], so derived distance/route structures stay
         valid.  Atomic so one domain's installation is published to
         every other domain sharing the value (the batch service hands
         one topology to a whole pool). *)
}

let positive what n = if n <= 0 then invalid_arg (Printf.sprintf "Topology: %s must be positive" what)

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
    List.concat_map
      (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) xs)))
      xs

let de_bruijn_graph k =
  positive "de Bruijn order" k;
  let n = 1 lsl k in
  let g = Ugraph.create n in
  for u = 0 to n - 1 do
    List.iter
      (fun b ->
        let v = ((2 * u) + b) mod n in
        if u <> v && not (Ugraph.mem_edge g u v) then Ugraph.add_edge g u v)
      [ 0; 1 ]
  done;
  g

let shuffle_exchange_graph k =
  positive "shuffle-exchange order" k;
  let n = 1 lsl k in
  let g = Ugraph.create n in
  let rotl u = ((u lsl 1) lor (u lsr (k - 1))) land (n - 1) in
  for u = 0 to n - 1 do
    let x = u lxor 1 in
    if u < x && not (Ugraph.mem_edge g u x) then Ugraph.add_edge g u x;
    let s = rotl u in
    if u <> s && not (Ugraph.mem_edge g u s) then Ugraph.add_edge g u s
  done;
  g

let build_graph kind =
  match kind with
  | Line n ->
    positive "line size" n;
    let g = Ugraph.create n in
    for i = 0 to n - 2 do
      Ugraph.add_edge g i (i + 1)
    done;
    g
  | Ring n ->
    positive "ring size" n;
    let g = Ugraph.create n in
    for i = 0 to n - 2 do
      Ugraph.add_edge g i (i + 1)
    done;
    if n > 2 then Ugraph.add_edge g (n - 1) 0;
    g
  | Mesh (r, c) ->
    positive "mesh rows" r;
    positive "mesh cols" c;
    let g = Ugraph.create (r * c) in
    for i = 0 to r - 1 do
      for j = 0 to c - 1 do
        let u = (i * c) + j in
        if j + 1 < c then Ugraph.add_edge g u (u + 1);
        if i + 1 < r then Ugraph.add_edge g u (u + c)
      done
    done;
    g
  | Torus (r, c) ->
    positive "torus rows" r;
    positive "torus cols" c;
    let g = Ugraph.create (r * c) in
    for i = 0 to r - 1 do
      for j = 0 to c - 1 do
        let u = (i * c) + j in
        if j + 1 < c then Ugraph.add_edge g u (u + 1);
        if i + 1 < r then Ugraph.add_edge g u (u + c)
      done
    done;
    if c > 2 then for i = 0 to r - 1 do Ugraph.add_edge g (i * c) ((i * c) + c - 1) done;
    if r > 2 then for j = 0 to c - 1 do Ugraph.add_edge g j (((r - 1) * c) + j) done;
    g
  | Hypercube d ->
    if d < 0 then invalid_arg "Topology: hypercube dimension must be >= 0";
    let n = 1 lsl d in
    let g = Ugraph.create n in
    for u = 0 to n - 1 do
      for b = 0 to d - 1 do
        let v = u lxor (1 lsl b) in
        if u < v then Ugraph.add_edge g u v
      done
    done;
    g
  | Complete n ->
    positive "complete size" n;
    Ugraph.complete n
  | Binary_tree d ->
    if d < 0 then invalid_arg "Topology: tree depth must be >= 0";
    let n = (1 lsl (d + 1)) - 1 in
    let g = Ugraph.create n in
    for u = 0 to n - 1 do
      let l = (2 * u) + 1 and r = (2 * u) + 2 in
      if l < n then Ugraph.add_edge g u l;
      if r < n then Ugraph.add_edge g u r
    done;
    g
  | Binomial_tree k ->
    if k < 0 then invalid_arg "Topology: binomial order must be >= 0";
    let n = 1 lsl k in
    let g = Ugraph.create n in
    for u = 1 to n - 1 do
      let parent = u land (u - 1) in
      Ugraph.add_edge g parent u
    done;
    g
  | Butterfly k ->
    positive "butterfly stages" k;
    let rows = 1 lsl k in
    let n = (k + 1) * rows in
    let id l r = (l * rows) + r in
    let g = Ugraph.create n in
    for l = 0 to k - 1 do
      for r = 0 to rows - 1 do
        Ugraph.add_edge g (id l r) (id (l + 1) r);
        Ugraph.add_edge g (id l r) (id (l + 1) (r lxor (1 lsl l)))
      done
    done;
    g
  | Cube_connected_cycles d ->
    if d < 3 then invalid_arg "Topology: CCC dimension must be >= 3";
    let n = d * (1 lsl d) in
    let id x i = (x * d) + i in
    let g = Ugraph.create n in
    for x = 0 to (1 lsl d) - 1 do
      for i = 0 to d - 1 do
        let j = (i + 1) mod d in
        if i < j || j = 0 then Ugraph.add_edge g (id x (min i j)) (id x (max i j));
        let y = x lxor (1 lsl i) in
        if x < y then Ugraph.add_edge g (id x i) (id y i)
      done
    done;
    g
  | Hex_mesh (r, c) ->
    positive "hex rows" r;
    positive "hex cols" c;
    let g = Ugraph.create (r * c) in
    for i = 0 to r - 1 do
      for j = 0 to c - 1 do
        let u = (i * c) + j in
        if j + 1 < c then Ugraph.add_edge g u (u + 1);
        if i + 1 < r then Ugraph.add_edge g u (u + c);
        if i + 1 < r && j > 0 then Ugraph.add_edge g u (u + c - 1)
      done
    done;
    g
  | De_bruijn k -> de_bruijn_graph k
  | Shuffle_exchange k -> shuffle_exchange_graph k
  | Star_graph n ->
    if n < 2 || n > 7 then invalid_arg "Topology: star graph order must be in [2,7]";
    let perms = permutations (List.init n (fun i -> i)) in
    let tbl = Hashtbl.create 64 in
    List.iteri (fun idx p -> Hashtbl.add tbl p idx) perms;
    let count = List.length perms in
    let g = Ugraph.create count in
    List.iteri
      (fun idx p ->
        let arr = Array.of_list p in
        for i = 1 to n - 1 do
          let arr' = Array.copy arr in
          let t = arr'.(0) in
          arr'.(0) <- arr'.(i);
          arr'.(i) <- t;
          let idx' = Hashtbl.find tbl (Array.to_list arr') in
          if idx < idx' then Ugraph.add_edge g idx idx'
        done)
      perms;
    g

let of_graph ?classes kind graph dead cut_links =
  let links = Array.of_list (List.map (fun (u, v, _) -> (u, v)) (Ugraph.edges graph)) in
  let link_ids = Hashtbl.create (max 16 (Array.length links)) in
  Array.iteri (fun i uv -> Hashtbl.add link_ids uv i) links;
  let classes =
    match classes with
    | Some c -> c
    | None -> Array.make (Ugraph.node_count graph) default_class
  in
  { kind; graph; links; link_ids; classes; dead; cut_links; cache = Atomic.make None }

let make kind =
  let graph = build_graph kind in
  of_graph kind graph (Array.make (Ugraph.node_count graph) false) 0

type shape = { nodes : int; edges : int; linked : int -> int -> bool }

(* the closed forms of [build_graph]'s loops above; the property test in
   test_topology.ml holds them to [make] *)
let shape kind =
  let mesh_links r c = (r * (c - 1)) + (c * (r - 1)) in
  let mesh_linked c u v = (v = u + 1 && v mod c <> 0) || v = u + c in
  match kind with
  | Mesh (r, c) -> Some { nodes = r * c; edges = mesh_links r c; linked = mesh_linked c }
  | Torus (r, c) ->
    (* wraparound only where it is not already a mesh link *)
    let row_wrap = c > 2 and col_wrap = r > 2 in
    Some
      {
        nodes = r * c;
        edges =
          mesh_links r c + (if row_wrap then r else 0) + if col_wrap then c else 0;
        linked =
          (fun u v ->
            mesh_linked c u v
            || (row_wrap && u mod c = 0 && v = u + c - 1)
            || (col_wrap && v = u + ((r - 1) * c)));
      }
  | Hypercube d ->
    let n = 1 lsl d in
    Some
      {
        nodes = n;
        edges = d * n / 2;
        linked = (fun u v -> let x = u lxor v in x land (x - 1) = 0);
      }
  | Binary_tree d ->
    let n = (1 lsl (d + 1)) - 1 in
    Some { nodes = n; edges = n - 1; linked = (fun u v -> (v - 1) / 2 = u) }
  | Binomial_tree k ->
    let n = 1 lsl k in
    Some { nodes = n; edges = n - 1; linked = (fun u v -> v land (v - 1) = u) }
  | Line _ | Ring _ | Complete _ | Butterfly _ | Cube_connected_cycles _ | Hex_mesh _
  | Star_graph _ | De_bruijn _ | Shuffle_exchange _ ->
    None

let get_cache t = Atomic.get t.cache

let set_cache t c = Atomic.set t.cache (Some c)

let kind t = t.kind

let is_degraded t = Array.exists Fun.id t.dead || t.cut_links > 0

let alive t u = u >= 0 && u < Array.length t.dead && not t.dead.(u)

let dead_procs t =
  let out = ref [] in
  for u = Array.length t.dead - 1 downto 0 do
    if t.dead.(u) then out := u :: !out
  done;
  !out

let alive_count t =
  let n = ref 0 in
  Array.iter (fun d -> if not d then incr n) t.dead;
  !n

let alive_procs t =
  let out = ref [] in
  for u = Array.length t.dead - 1 downto 0 do
    if not t.dead.(u) then out := u :: !out
  done;
  !out

let node_class t u =
  if u < 0 || u >= Array.length t.classes then invalid_arg "Topology.node_class";
  t.classes.(u)

let node_classes t = Array.copy t.classes

let is_classed t = Array.exists (fun c -> c <> default_class) t.classes

let class_names t = List.sort_uniq compare (Array.to_list t.classes)

let with_classes t classes =
  if Array.length classes <> Ugraph.node_count t.graph then
    invalid_arg "Topology.with_classes: one class per processor required";
  (* the cache slot holds graph-derived structures only (distances,
     routes), so the re-classed view may share it *)
  { t with classes = Array.copy classes }

let base_name t =
  match t.kind with
  | Line n -> Printf.sprintf "line(%d)" n
  | Ring n -> Printf.sprintf "ring(%d)" n
  | Mesh (r, c) -> Printf.sprintf "mesh(%dx%d)" r c
  | Torus (r, c) -> Printf.sprintf "torus(%dx%d)" r c
  | Hypercube d -> Printf.sprintf "hypercube(%d)" d
  | Complete n -> Printf.sprintf "complete(%d)" n
  | Binary_tree d -> Printf.sprintf "bintree(%d)" d
  | Binomial_tree k -> Printf.sprintf "binomial(%d)" k
  | Butterfly k -> Printf.sprintf "butterfly(%d)" k
  | Cube_connected_cycles d -> Printf.sprintf "ccc(%d)" d
  | Hex_mesh (r, c) -> Printf.sprintf "hex(%dx%d)" r c
  | Star_graph n -> Printf.sprintf "star(%d)" n
  | De_bruijn k -> Printf.sprintf "debruijn(%d)" k
  | Shuffle_exchange k -> Printf.sprintf "shuffle(%d)" k

let name t =
  if not (is_degraded t) then base_name t
  else
    Printf.sprintf "%s[-%dp,-%dl]" (base_name t)
      (List.length (dead_procs t))
      t.cut_links

let graph t = t.graph

let node_count t = Ugraph.node_count t.graph

let link_count t = Array.length t.links

let link_endpoints t i =
  if i < 0 || i >= Array.length t.links then invalid_arg "Topology.link_endpoints";
  t.links.(i)

let link_between t u v =
  let key = if u < v then (u, v) else (v, u) in
  Hashtbl.find_opt t.link_ids key

let links_of_path t path =
  let rec go = function
    | [] | [ _ ] -> []
    | u :: (v :: _ as rest) ->
      (match link_between t u v with
      | Some l -> l :: go rest
      | None -> invalid_arg (Printf.sprintf "Topology.links_of_path: %d and %d not adjacent" u v))
  in
  go path

let degree t u = Ugraph.degree t.graph u

let diameter t = Traverse.diameter t.graph

let degrade t ~dead_procs:dp ~dead_links:dl =
  let n = Ugraph.node_count t.graph in
  let nl = Array.length t.links in
  match
    ( List.find_opt (fun p -> p < 0 || p >= n) dp,
      List.find_opt (fun l -> l < 0 || l >= nl) dl )
  with
  | Some p, _ ->
    Error
      (Printf.sprintf "dead processor %d out of range (%s has %d processors)" p (name t) n)
  | None, Some l ->
    Error (Printf.sprintf "dead link %d out of range (%s has %d links)" l (name t) nl)
  | None, None ->
    if dp = [] && dl = [] then Ok t
    else begin
      let dead = Array.copy t.dead in
      List.iter (fun p -> dead.(p) <- true) dp;
      if Array.for_all Fun.id dead then
        Error (Printf.sprintf "faults kill every processor of %s" (name t))
      else begin
        let dead_link = Array.make nl false in
        List.iter (fun l -> dead_link.(l) <- true) dl;
        (* count links cut beyond those lost to a dead endpoint, so the
           degraded name reflects explicit link faults only *)
        let cut = ref t.cut_links in
        Array.iteri
          (fun i (u, v) -> if dead_link.(i) && not (dead.(u) || dead.(v)) then incr cut)
          t.links;
        let g = Ugraph.create n in
        List.iteri
          (fun i (u, v, w) ->
            if not (dead_link.(i) || dead.(u) || dead.(v)) then Ugraph.add_edge ~w g u v)
          (Ugraph.edges t.graph);
        Ok (of_graph ~classes:t.classes t.kind g dead !cut)
      end
    end

let split_bits d v =
  (* interleave: even-indexed bits -> x, odd-indexed -> y *)
  let x = ref 0 and y = ref 0 and xb = ref 0 and yb = ref 0 in
  for b = 0 to d - 1 do
    if v land (1 lsl b) <> 0 then
      if b mod 2 = 0 then x := !x lor (1 lsl !xb) else y := !y lor (1 lsl !yb);
    if b mod 2 = 0 then incr xb else incr yb
  done;
  (!x, !y)

let layout t =
  let n = node_count t in
  let circle () =
    Array.init n (fun i ->
        let a = 2.0 *. Float.pi *. float_of_int i /. float_of_int (max 1 n) in
        (cos a, sin a))
  in
  match t.kind with
  | Line _ -> Array.init n (fun i -> (float_of_int i, 0.0))
  | Ring _ | Complete _ | Star_graph _ | De_bruijn _ | Shuffle_exchange _ -> circle ()
  | Mesh (_, c) | Torus (_, c) -> Array.init n (fun u -> (float_of_int (u mod c), float_of_int (u / c)))
  | Hex_mesh (_, c) ->
    Array.init n (fun u ->
        let i = u / c and j = u mod c in
        (float_of_int j +. (0.5 *. float_of_int i), float_of_int i))
  | Hypercube d ->
    Array.init n (fun u ->
        let x, y = split_bits d u in
        (float_of_int x, float_of_int y))
  | Binary_tree _ | Binomial_tree _ ->
    let dist = Traverse.bfs_dist t.graph 0 in
    let counters = Hashtbl.create 8 in
    Array.init n (fun u ->
        let d = dist.(u) in
        let k = Option.value ~default:0 (Hashtbl.find_opt counters d) in
        Hashtbl.replace counters d (k + 1);
        (float_of_int k, float_of_int d))
  | Butterfly k ->
    let rows = 1 lsl k in
    Array.init n (fun u -> (float_of_int (u mod rows), float_of_int (u / rows)))
  | Cube_connected_cycles d ->
    Array.init n (fun u ->
        let x = u / d and i = u mod d in
        let cx, cy = split_bits d x in
        let a = 2.0 *. Float.pi *. float_of_int i /. float_of_int d in
        ((3.0 *. float_of_int cx) +. (0.5 *. cos a), (3.0 *. float_of_int cy) +. (0.5 *. sin a)))

let hypercube_coords t u =
  match t.kind with
  | Hypercube _ -> u
  | Line _ | Ring _ | Mesh _ | Torus _ | Complete _ | Binary_tree _ | Binomial_tree _
  | Butterfly _ | Cube_connected_cycles _ | Hex_mesh _ | Star_graph _ | De_bruijn _
  | Shuffle_exchange _ ->
    invalid_arg "Topology.hypercube_coords: not a hypercube"

let mesh_coords t u =
  match t.kind with
  | Mesh (_, c) | Torus (_, c) | Hex_mesh (_, c) -> (u / c, u mod c)
  | Line _ | Ring _ | Hypercube _ | Complete _ | Binary_tree _ | Binomial_tree _
  | Butterfly _ | Cube_connected_cycles _ | Star_graph _ | De_bruijn _
  | Shuffle_exchange _ ->
    invalid_arg "Topology.mesh_coords: not a mesh-like topology"

let mesh_node t (i, j) =
  match t.kind with
  | Mesh (_, c) | Torus (_, c) | Hex_mesh (_, c) -> (i * c) + j
  | Line _ | Ring _ | Hypercube _ | Complete _ | Binary_tree _ | Binomial_tree _
  | Butterfly _ | Cube_connected_cycles _ | Star_graph _ | De_bruijn _
  | Shuffle_exchange _ ->
    invalid_arg "Topology.mesh_node: not a mesh-like topology"

let known_kinds =
  [ "line:N"; "ring:N"; "mesh:RxC"; "torus:RxC"; "hypercube:D"; "complete:N";
    "bintree:D"; "binomial:K"; "butterfly:K"; "ccc:D"; "hex:RxC"; "star:N";
    "debruijn:K"; "shuffle:K" ]

let max_procs = 8192

(* the processor count of a kind whose sizes passed [parse]'s range
   checks, saturating at [max_procs + 1] so no size overflows *)
let bounded_count kind =
  let over = max_procs + 1 in
  let mul a b = if a > over / b then over else min over (a * b) in
  let pow2 d = if d >= 14 then over else 1 lsl d in
  match kind with
  | Line n | Ring n | Complete n -> min over n
  | Mesh (r, c) | Torus (r, c) | Hex_mesh (r, c) -> mul r c
  | Hypercube d | Binomial_tree d | De_bruijn d | Shuffle_exchange d -> pow2 d
  | Binary_tree d -> if d >= 13 then over else pow2 (d + 1) - 1
  | Butterfly k -> mul (pow2 k) (min over (k + 1))
  | Cube_connected_cycles d -> mul (pow2 d) (min over d)
  | Star_graph n -> List.fold_left ( * ) 1 (List.init n (fun i -> i + 1))

let max_links = 65_536

let parse s =
  let ( let* ) = Result.bind in
  match String.split_on_char ':' s with
  | [ family; arg ] -> begin
    let fail fmt = Printf.ksprintf (fun m -> Error (family ^ " " ^ m)) fmt in
    (* the ranges [build_graph] accepts, as named errors *)
    let at_least lo what n =
      if n >= lo then Ok n else fail "%s must be at least %d, got %d" what lo n
    in
    let int lo what =
      match int_of_string_opt arg with
      | Some n -> at_least lo what n
      | None -> fail "%s %S is not an integer" what arg
    in
    let dims () =
      match String.split_on_char 'x' arg with
      | [ a; b ] -> begin
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some r, Some c ->
          let* r = at_least 1 "rows" r in
          let* c = at_least 1 "cols" c in
          Ok (r, c)
        | _, _ -> fail "dimensions %S are not RxC" arg
      end
      | _ -> fail "dimensions %S are not RxC" arg
    in
    let* kind =
      match family with
      | "line" -> Result.map (fun n -> Line n) (int 1 "size")
      | "ring" -> Result.map (fun n -> Ring n) (int 1 "size")
      | "mesh" -> Result.map (fun (r, c) -> Mesh (r, c)) (dims ())
      | "torus" -> Result.map (fun (r, c) -> Torus (r, c)) (dims ())
      | "hypercube" | "cube" -> Result.map (fun d -> Hypercube d) (int 0 "dimension")
      | "complete" -> Result.map (fun n -> Complete n) (int 1 "size")
      | "bintree" -> Result.map (fun d -> Binary_tree d) (int 0 "depth")
      | "binomial" -> Result.map (fun k -> Binomial_tree k) (int 0 "order")
      | "butterfly" -> Result.map (fun k -> Butterfly k) (int 1 "stages")
      | "ccc" -> Result.map (fun d -> Cube_connected_cycles d) (int 3 "dimension")
      | "hex" -> Result.map (fun (r, c) -> Hex_mesh (r, c)) (dims ())
      | "star" ->
        let* n = int 2 "order" in
        if n > 7 then fail "order must be at most 7, got %d" n else Ok (Star_graph n)
      | "debruijn" -> Result.map (fun k -> De_bruijn k) (int 1 "order")
      | "shuffle" -> Result.map (fun k -> Shuffle_exchange k) (int 1 "order")
      | other -> Error (Printf.sprintf "unknown topology family %S" other)
    in
    if bounded_count kind > max_procs then
      Error (Printf.sprintf "%s exceeds the %d-processor cap" s max_procs)
    else
      (* only the complete graph's links grow as N^2: every other
         family stays under [max_links] at [max_procs] (the densest,
         hypercube:13, has 53 248 links) *)
      match kind with
      | Complete n when n * (n - 1) / 2 > max_links ->
        Error (Printf.sprintf "%s exceeds the %d-link cap" s max_links)
      | _ -> Ok kind
  end
  | _ -> Error (Printf.sprintf "bad topology %S (want family:args)" s)

let class_name_ok s =
  String.length s > 0
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '-')
       s

let parse_class_spec ~n spec =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let classes = Array.make n default_class in
  let rec groups = function
    | [] -> Ok classes
    | g :: rest -> begin
      match String.index_opt g '@' with
      | None -> err "bad class group %S (want CLASS@IDS, e.g. mem@0,4-7)" g
      | Some i ->
        let cls = String.sub g 0 i in
        let ids = String.sub g (i + 1) (String.length g - i - 1) in
        if not (class_name_ok cls) then
          err "bad class name %S (want letters, digits, '_' or '-')" cls
        else begin
          let rec assign = function
            | [] -> groups rest
            | p :: ps -> begin
              let bounds =
                match String.index_opt p '-' with
                | Some j when j > 0 ->
                  ( int_of_string_opt (String.sub p 0 j),
                    int_of_string_opt (String.sub p (j + 1) (String.length p - j - 1)) )
                | Some _ | None ->
                  let v = int_of_string_opt p in
                  (v, v)
              in
              match bounds with
              | Some lo, Some hi when lo > hi ->
                err "empty processor range %S in class %s" p cls
              | Some lo, Some hi when lo < 0 || hi >= n ->
                err "processor ids %S of class %s out of range (topology has %d processors)"
                  p cls n
              | Some lo, Some hi ->
                for u = lo to hi do
                  classes.(u) <- cls
                done;
                assign ps
              | _, _ -> err "bad processor ids %S in class %s (want ID or LO-HI)" p cls
            end
          in
          assign (String.split_on_char ',' ids)
        end
    end
  in
  groups (String.split_on_char '/' spec)

let classes_prefix = "classes="

let of_string s =
  let segs = String.split_on_char ':' s in
  let base_segs, class_spec =
    match List.rev segs with
    | last :: rest
      when String.length last >= String.length classes_prefix
           && String.sub last 0 (String.length classes_prefix) = classes_prefix ->
      ( List.rev rest,
        Some
          (String.sub last (String.length classes_prefix)
             (String.length last - String.length classes_prefix)) )
    | _ -> (segs, None)
  in
  match parse (String.concat ":" base_segs) with
  | Error e -> Error e
  | Ok kind -> begin
    let t = make kind in
    match class_spec with
    | None -> Ok t
    | Some spec ->
      Result.map (with_classes t) (parse_class_spec ~n:(node_count t) spec)
  end

let pp fmt t =
  Format.fprintf fmt "%s: %d processors, %d links, degree %d, diameter %d" (name t)
    (node_count t) (link_count t) (Ugraph.max_degree t.graph) (diameter t);
  if is_classed t then begin
    let counts = Hashtbl.create 8 in
    Array.iter
      (fun c ->
        Hashtbl.replace counts c (1 + Option.value ~default:0 (Hashtbl.find_opt counts c)))
      t.classes;
    Format.fprintf fmt ", classes";
    List.iter
      (fun c -> Format.fprintf fmt " %s:%d" c (Hashtbl.find counts c))
      (class_names t)
  end
