module Perm = Oregami_perm.Perm
module Group = Oregami_perm.Group
module Taskgraph = Oregami_taskgraph.Taskgraph
module Digraph = Oregami_graph.Digraph
module Ugraph = Oregami_graph.Ugraph
module Traverse = Oregami_graph.Traverse
module Treecanon = Oregami_graph.Treecanon
module Iso = Oregami_graph.Iso
module Topology = Oregami_topology.Topology

type comm_kind = Bijective of Perm.t | Functional | General

type cayley_analysis = {
  group : Group.t;
  gen_perms : (string * Perm.t) list;
  regular_action : bool;
  uniform_cycles : bool;
  is_cayley : bool;
}

type affine_map = { matrix : int array array; offset : int array }

type t = {
  declared_family : string option;
  detected_family : string option;
  comm_kinds : (string * comm_kind) list;
  all_bijective : bool;
  cayley : cayley_analysis option;
  affine_maps : (string * affine_map list) list option;
  single_nodetype : bool;
  requirements : (string * string) list;
}

let comm_function tg phase =
  match Taskgraph.comm_phase tg phase with
  | None -> None
  | Some cp ->
    let n = tg.Taskgraph.n in
    let f = Array.make n (-1) in
    let ok = ref true in
    for v = 0 to n - 1 do
      match Digraph.succ cp.Taskgraph.edges v with
      | [ (w, _) ] -> f.(v) <- w
      | [] | _ :: _ :: _ -> ok := false
    done;
    if !ok then Some f else None

let classify_phase tg name =
  match comm_function tg name with
  | None -> General
  | Some f ->
    if Perm.is_bijection (Array.length f) (fun i -> f.(i)) then
      Bijective (Perm.of_array f)
    else Functional

let cayley_of_kinds n kinds =
  let gens =
    List.filter_map
      (fun (name, k) -> match k with Bijective p -> Some (name, p) | Functional | General -> None)
      kinds
  in
  if List.length gens <> List.length kinds || gens = [] then None
  else begin
    (* paper's halting rule: abandon the closure once it passes |X| *)
    match Group.generate ~bound:n (List.map snd gens) with
    | None -> None
    | Some group ->
      let regular_action = Group.acts_regularly group in
      let uniform_cycles = Group.uniform_cycle_lengths group in
      Some
        {
          group;
          gen_perms = gens;
          regular_action;
          uniform_cycles;
          is_cayley = regular_action && uniform_cycles;
        }
  end

let iso_cap = 64

type family_match = { fam_name : string; relabel : int array; fam_dims : int list option }

(* Every edge of [g] is a link of [shape]; with equal edge counts (and
   no parallel edges on either side) the labelled edge sets coincide. *)
let identity_labelled g (shape : Topology.shape) =
  let n = Ugraph.node_count g in
  let rec from u =
    u >= n
    || List.for_all (fun (v, _) -> v < u || shape.Topology.linked u v) (Ugraph.neighbors g u)
       && from (u + 1)
  in
  from 0

(* canonical relabeling onto [kind]'s standard numbering, decided on the
   closed-form shape: identity when the labelled edge sets already
   coincide, an isomorphism against a reference graph for graphs small
   enough to search (and [plausible] against it), None otherwise *)
let relabel_for g ~iso ?(plausible = fun _ -> true) kind =
  let n = Ugraph.node_count g in
  match Topology.shape kind with
  | None -> None
  | Some shape ->
    if n <> shape.Topology.nodes || Ugraph.edge_count g <> shape.Topology.edges then None
    else if identity_labelled g shape then Some (Array.init n (fun i -> i))
    else if n <= iso_cap then begin
      let reference = Topology.graph (Topology.make kind) in
      if plausible reference then iso reference else None
    end
    else None

let path_order g start =
  (* positions along a path/cycle walk beginning at [start], first step
     towards the smaller-id neighbour *)
  let n = Ugraph.node_count g in
  let pos = Array.make n (-1) in
  let rec walk prev v i =
    pos.(v) <- i;
    let nexts =
      Ugraph.neighbors g v
      |> List.map fst
      |> List.filter (fun u -> u <> prev && pos.(u) = -1)
      |> List.sort compare
    in
    match nexts with [] -> () | u :: _ -> walk v u (i + 1)
  in
  walk (-1) start 0;
  if Array.exists (( = ) (-1)) pos then None else Some pos

let match_family g =
  let n = Ugraph.node_count g in
  let degrees = List.init n (Ugraph.degree g) in
  let is_pow2 v = v > 0 && v land (v - 1) = 0 in
  let log2 v =
    let rec go v acc = if v <= 1 then acc else go (v / 2) (acc + 1) in
    go v 0
  in
  (* [g]'s distance profiles are shared by every candidate it is
     searched against *)
  let iso = Iso.isomorphism_distance_pruned g in
  let with_relabel ?plausible fam_name kind fam_dims =
    Option.map (fun relabel -> { fam_name; relabel; fam_dims }) (relabel_for g ~iso ?plausible kind)
  in
  if n >= 2 && 2 * Ugraph.edge_count g = n * (n - 1) then
    Some { fam_name = "complete"; relabel = Array.init n (fun i -> i); fam_dims = None }
  else if n >= 3 && List.for_all (( = ) 2) degrees && Traverse.is_connected g then
    Option.map
      (fun relabel -> { fam_name = "ring"; relabel; fam_dims = None })
      (path_order g 0)
  else if
    n >= 2
    && Ugraph.edge_count g = n - 1
    && List.length (List.filter (( = ) 1) degrees) = 2
    && List.for_all (fun d -> d = 1 || d = 2) degrees
    && Traverse.is_connected g
  then begin
    let endpoint =
      let rec find v = if Ugraph.degree g v = 1 then v else find (v + 1) in
      find 0
    in
    Option.map
      (fun relabel -> { fam_name = "line"; relabel; fam_dims = None })
      (path_order g endpoint)
  end
  else if Treecanon.is_tree g then begin
    (* a tree is the reference tree or it is not; past the isomorphism
       cap only an identity labelling can be used anyway *)
    let tree name kind = with_relabel ~plausible:(Treecanon.isomorphic_trees g) name kind None in
    if is_pow2 n then tree "binomial" (Topology.Binomial_tree (log2 n))
    else if is_pow2 (n + 1) && n > 1 then tree "bintree" (Topology.Binary_tree (log2 (n + 1) - 1))
    else None
  end
  else begin
    let hypercube =
      if is_pow2 n && n >= 4 && List.for_all (( = ) (log2 n)) degrees then
        with_relabel "hypercube" (Topology.Hypercube (log2 n)) None
      else None
    in
    if Option.is_some hypercube then hypercube
    else begin
      (* meshes and tori: try factorizations r x c, r <= c, r >= 2.  A
         mesh has 2n - r - c links, so at most one factorization gets
         past the counts; every torus has 2n *)
      let rec try_grid kind_of name r =
        if r * r > n then None
        else if n mod r = 0 && r >= 2 then begin
          let c = n / r in
          match with_relabel name (kind_of r c) (Some [ r; c ]) with
          | Some m -> Some m
          | None -> try_grid kind_of name (r + 1)
        end
        else try_grid kind_of name (r + 1)
      in
      match try_grid (fun r c -> Topology.Mesh (r, c)) "mesh" 2 with
      | Some m -> Some m
      | None ->
        if List.for_all (( = ) 4) degrees then
          try_grid (fun r c -> Topology.Torus (r, c)) "torus" 3
        else None
    end
  end

let detect_family_match ?static tg =
  let g =
    match static with
    | Some g when Taskgraph.static_has_unit_edges tg -> g
    | Some _ | None -> Taskgraph.static_graph_unit tg
  in
  match_family g

let detect_family tg = Option.map (fun m -> m.fam_name) (detect_family_match tg)

(* ------------------------------------------------------------------ *)
(* syntactic Cayley detection (paper section 4.2.2 wishlist)           *)

type translations = { tr_offsets : (string * int) list; tr_modulus : int }

(* i -> (inner i) mod n with inner affine of slope 1, recognised with
   three constant-time probes of the inner expression -- never by
   enumerating X (the paper's efficiency motivation) *)
let translation_offset env var n (e : Ast.expr) =
  match e with
  | Ast.Bin (Ast.Mod, inner, m) -> begin
    match Eval.expr env m with
    | Ok modulus when modulus = n -> begin
      let at x = Eval.expr ((var, x) :: env) inner in
      match (at 0, at 1, at 2) with
      | Ok c, Ok c1, Ok c2 when c1 = c + 1 && c2 = c + 2 -> Some (((c mod n) + n) mod n)
      | (Ok _ | Error _), _, _ -> None
    end
    | Ok _ | Error _ -> None
  end
  | Ast.Int _ | Ast.Var _ | Ast.Neg _ | Ast.Bin _ | Ast.Call _ -> None

let syntactic_cayley (c : Compile.compiled) =
  match c.Compile.spaces with
  | [ space ] when List.length space.Compile.dims = 1 && c.Compile.program.Ast.spawns = [] -> begin
    let lo, hi = List.hd space.Compile.dims in
    if lo <> 0 then None
    else begin
      let n = hi + 1 in
      let env = c.Compile.bindings in
      let phase_offset (cp : Ast.comphase) =
        match cp.Ast.rules with
        | [ rule ] when rule.Ast.guard = None -> begin
          match (rule.Ast.src_vars, rule.Ast.dst_exprs) with
          | [ var ], [ e ] when rule.Ast.src_type = rule.Ast.dst_type ->
            Option.map (fun c -> (cp.Ast.cp_name, c)) (translation_offset env var n e)
          | _, _ -> None
        end
        | [] | _ :: _ -> None
      in
      let offsets = List.map phase_offset c.Compile.program.Ast.comphases in
      if offsets = [] || List.exists Option.is_none offsets then None
      else Some { tr_offsets = List.map Option.get offsets; tr_modulus = n }
    end
  end
  | [] | [ _ ] | _ :: _ :: _ -> None

let syntactic_is_cayley tr =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let g = List.fold_left (fun acc (_, c) -> gcd acc c) tr.tr_modulus tr.tr_offsets in
  g = 1

(* ------------------------------------------------------------------ *)
(* affine probing                                                      *)

let eval_rule env (rule : Ast.rule) values =
  let env = List.combine rule.Ast.src_vars values @ env in
  let in_domain =
    match rule.Ast.guard with None -> Ok true | Some c -> Eval.cond env c
  in
  match in_domain with
  | Error _ -> None
  | Ok false -> Some None
  | Ok true -> begin
    let rec eval_all acc = function
      | [] -> Some (List.rev acc)
      | e :: rest -> (
        match Eval.expr env e with Ok v -> eval_all (v :: acc) rest | Error _ -> None)
    in
    match eval_all [] rule.Ast.dst_exprs with
    | Some vs -> Some (Some (Array.of_list vs))
    | None -> None
  end

let probe_rule env dims (rule : Ast.rule) =
  let d = List.length dims in
  if List.length rule.Ast.src_vars <> d || List.length rule.Ast.dst_exprs <> d then None
  else begin
    let lows = List.map fst dims in
    let x0 = Array.of_list lows in
    (* f must be defined at the probe points *)
    let f values =
      match eval_rule env rule values with Some (Some v) -> Some v | Some None | None -> None
    in
    match f (Array.to_list x0) with
    | None -> None
    | Some b0 ->
      let cols =
        List.mapi
          (fun i (lo, hi) ->
            if hi > lo then begin
              let xi = Array.copy x0 in
              xi.(i) <- xi.(i) + 1;
              match f (Array.to_list xi) with
              | Some bi -> Some (Array.init d (fun r -> bi.(r) - b0.(r)))
              | None -> None
            end
            else Some (Array.make d 0))
          dims
      in
      if List.exists Option.is_none cols then None
      else begin
        let cols = List.map Option.get cols in
        let matrix =
          Array.init d (fun r -> Array.of_list (List.map (fun col -> col.(r)) cols))
        in
        let apply x =
          Array.init d (fun r ->
              let row = matrix.(r) in
              let acc = ref 0 in
              Array.iteri (fun c xc -> acc := !acc + (row.(c) * xc)) x;
              !acc)
        in
        let ax0 = apply x0 in
        let offset = Array.init d (fun r -> b0.(r) - ax0.(r)) in
        (* verify on the full domain (bounded) *)
        let total = List.fold_left (fun acc (lo, hi) -> acc * (hi - lo + 1)) 1 dims in
        let ok = ref (total <= 65536) in
        if !ok then begin
          let rec enum i x =
            if !ok then
              if i >= d then begin
                let xa = Array.of_list (List.rev x) in
                match eval_rule env rule (List.rev x) with
                | Some (Some got) ->
                  let axb = apply xa in
                  let want = Array.init d (fun r -> axb.(r) + offset.(r)) in
                  if got <> want then ok := false
                | Some None -> ()
                | None -> ok := false
              end
              else begin
                let lo, hi = List.nth dims i in
                for v = lo to hi do
                  enum (i + 1) (v :: x)
                done
              end
          in
          enum 0 []
        end;
        if !ok then Some { matrix; offset } else None
      end
  end

let affine_analysis (c : Compile.compiled) =
  match c.Compile.spaces with
  | [ space ] ->
    let env = c.Compile.bindings in
    let per_phase =
      List.map
        (fun (cp : Ast.comphase) ->
          let maps = List.map (probe_rule env space.Compile.dims) cp.Ast.rules in
          if List.exists Option.is_none maps then None
          else Some (cp.Ast.cp_name, List.map Option.get maps))
        c.Compile.program.Ast.comphases
    in
    if List.exists Option.is_none per_phase then None
    else Some (List.map Option.get per_phase)
  | [] | _ :: _ :: _ -> None

let analyze ?family (c : Compile.compiled) =
  let tg = c.Compile.graph in
  let kinds = List.map (fun name -> (name, classify_phase tg name)) (Taskgraph.comm_names tg) in
  let all_bijective =
    kinds <> []
    && List.for_all (fun (_, k) -> match k with Bijective _ -> true | Functional | General -> false) kinds
  in
  let cayley = if all_bijective then cayley_of_kinds tg.Taskgraph.n kinds else None in
  let requirements =
    List.filter_map
      (fun (s : Compile.node_space) ->
        Option.map (fun r -> (s.Compile.type_name, r)) s.Compile.requires)
      c.Compile.spaces
  in
  {
    declared_family = tg.Taskgraph.declared_family;
    detected_family =
      (match family with
      | Some m -> Option.map (fun m -> m.fam_name) m
      | None -> detect_family tg);
    comm_kinds = kinds;
    all_bijective;
    cayley;
    affine_maps = affine_analysis c;
    single_nodetype = List.length c.Compile.spaces = 1;
    requirements;
  }

let pp fmt a =
  Format.fprintf fmt "@[<v>analysis:";
  (match a.declared_family with
  | Some f -> Format.fprintf fmt "@,  declared family: %s" f
  | None -> ());
  (match a.detected_family with
  | Some f -> Format.fprintf fmt "@,  detected family: %s" f
  | None -> Format.fprintf fmt "@,  detected family: none");
  List.iter
    (fun (name, kind) ->
      let k =
        match kind with
        | Bijective p -> "bijective " ^ Perm.to_string p
        | Functional -> "functional"
        | General -> "general"
      in
      Format.fprintf fmt "@,  phase %s: %s" name k)
    a.comm_kinds;
  (match a.cayley with
  | Some cy ->
    Format.fprintf fmt "@,  group closure: |G| = %d, regular action = %b, uniform cycles = %b, Cayley = %b"
      (Group.order cy.group) cy.regular_action cy.uniform_cycles cy.is_cayley
  | None -> Format.fprintf fmt "@,  group closure: n/a");
  (match a.affine_maps with
  | Some _ -> Format.fprintf fmt "@,  affine communication: yes (systolic candidate)"
  | None -> Format.fprintf fmt "@,  affine communication: no");
  if a.requirements <> [] then
    Format.fprintf fmt "@,  requirements: %s"
      (String.concat ", "
         (List.map (fun (ty, cls) -> Printf.sprintf "%s requires %s" ty cls) a.requirements));
  Format.fprintf fmt "@]"
