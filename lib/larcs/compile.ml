module Digraph = Oregami_graph.Digraph
module Taskgraph = Oregami_taskgraph.Taskgraph
module Phase_expr = Oregami_taskgraph.Phase_expr

type node_space = {
  type_name : string;
  dims : (int * int) list;
  offset : int;
  count : int;
  requires : string option;
}

type compiled = {
  program : Ast.program;
  bindings : (string * int) list;
  spaces : node_space list;
  graph : Taskgraph.t;
  activation : int array;
}

let ( let* ) = Result.bind

let space_size dims =
  List.fold_left (fun acc (lo, hi) -> acc * max 0 (hi - lo + 1)) 1 dims

(* Hard ceiling on task counts: parameter bindings come from the
   command line, and a huge or overflowing node space must be a
   compile Error, never an [Array.make] crash or an OOM. *)
let max_tasks = 1_000_000

(* [space_size] with an overflow-safe cap: [None] when the product
   exceeds [max_tasks]. *)
let checked_space_size dims =
  List.fold_left
    (fun acc (lo, hi) ->
      match acc with
      | None -> None
      | Some a ->
        let d = max 0 (hi - lo + 1) in
        if d = 0 then Some 0 else if a > max_tasks / d then None else Some (a * d))
    (Some 1) dims

(* Mixed-radix rank of a label tuple within its space, row-major. *)
let rank_of dims values =
  let rec go dims values acc =
    match (dims, values) with
    | [], [] -> Some acc
    | (lo, hi) :: dims, v :: values ->
      if v < lo || v > hi then None else go dims values ((acc * (hi - lo + 1)) + (v - lo))
    | [], _ :: _ | _ :: _, [] -> None
  in
  go dims values 0

let values_of dims rank =
  let sizes = List.map (fun (lo, hi) -> hi - lo + 1) dims in
  let rec go dims sizes rank =
    match (dims, sizes) with
    | [], [] -> []
    | (lo, _) :: dims, _size :: sizes ->
      let tail_size = List.fold_left ( * ) 1 sizes in
      (lo + (rank / tail_size)) :: go dims sizes (rank mod tail_size)
    | [], _ :: _ | _ :: _, [] -> assert false
  in
  go dims sizes rank

let iter_space dims f =
  let total = space_size dims in
  for r = 0 to total - 1 do
    f (values_of dims r)
  done

let find_space spaces name = List.find_opt (fun s -> s.type_name = name) spaces

let label_string multi type_name values =
  let tuple =
    match values with
    | [ v ] -> string_of_int v
    | vs -> "(" ^ String.concat "," (List.map string_of_int vs) ^ ")"
  in
  if multi then type_name ^ ":" ^ tuple else tuple

let build_spaces env nodetypes =
  let* spaces_rev, _ =
    List.fold_left
      (fun acc (nt : Ast.nodetype) ->
        let* spaces, offset = acc in
        let* dims =
          List.fold_left
            (fun acc { Ast.lo; hi } ->
              let* dims = acc in
              let* lo = Eval.expr env lo in
              let* hi = Eval.expr env hi in
              if hi < lo then
                Error
                  (Printf.sprintf "nodetype %S: empty range %d .. %d" nt.Ast.nt_name lo hi)
              else Ok ((lo, hi) :: dims))
            (Ok []) nt.Ast.nt_ranges
        in
        let dims = List.rev dims in
        let* count =
          match checked_space_size dims with
          | Some c when offset <= max_tasks - c -> Ok c
          | Some _ | None ->
            Error
              (Printf.sprintf "nodetype %S: node space exceeds %d tasks"
                 nt.Ast.nt_name max_tasks)
        in
        let space =
          { type_name = nt.Ast.nt_name; dims; offset; count;
            requires = nt.Ast.nt_requires }
        in
        Ok (space :: spaces, offset + count))
      (Ok ([], 0))
      nodetypes
  in
  Ok (List.rev spaces_rev)

let compile_comphase env spaces n (cp : Ast.comphase) =
  let g = Digraph.create n in
  let* () =
    List.fold_left
      (fun acc (rule : Ast.rule) ->
        let* () = acc in
        let* src =
          match find_space spaces rule.Ast.src_type with
          | Some s -> Ok s
          | None -> Error (Printf.sprintf "phase %S: unknown node type %S" cp.Ast.cp_name rule.Ast.src_type)
        in
        let* dst =
          match find_space spaces rule.Ast.dst_type with
          | Some s -> Ok s
          | None -> Error (Printf.sprintf "phase %S: unknown node type %S" cp.Ast.cp_name rule.Ast.dst_type)
        in
        let* () =
          if List.length rule.Ast.src_vars = List.length src.dims then Ok ()
          else Error (Printf.sprintf "phase %S: %S has %d dimensions but pattern binds %d"
                        cp.Ast.cp_name src.type_name (List.length src.dims)
                        (List.length rule.Ast.src_vars))
        in
        let* () =
          if List.length rule.Ast.dst_exprs = List.length dst.dims then Ok ()
          else Error (Printf.sprintf "phase %S: %S has %d dimensions but target has %d"
                        cp.Ast.cp_name dst.type_name (List.length dst.dims)
                        (List.length rule.Ast.dst_exprs))
        in
        let err = ref None in
        iter_space src.dims (fun values ->
            if !err = None then begin
              let env = List.combine rule.Ast.src_vars values @ env in
              let fire =
                match rule.Ast.guard with
                | None -> Ok true
                | Some c -> Eval.cond env c
              in
              match fire with
              | Error m -> err := Some m
              | Ok false -> ()
              | Ok true -> begin
                let target =
                  List.fold_left
                    (fun acc e ->
                      let* l = acc in
                      let* v = Eval.expr env e in
                      Ok (v :: l))
                    (Ok []) rule.Ast.dst_exprs
                in
                match target with
                | Error m -> err := Some m
                | Ok rev_vals -> begin
                  let dst_values = List.rev rev_vals in
                  match rank_of dst.dims dst_values with
                  | None ->
                    err :=
                      Some
                        (Printf.sprintf
                           "phase %S: target (%s) is outside node type %S (from source (%s)); add a 'when' guard"
                           cp.Ast.cp_name
                           (String.concat "," (List.map string_of_int dst_values))
                           dst.type_name
                           (String.concat "," (List.map string_of_int values)))
                  | Some dst_rank -> begin
                    let src_rank =
                      match rank_of src.dims values with Some r -> r | None -> assert false
                    in
                    let volume =
                      match rule.Ast.volume with
                      | None -> Ok 1
                      | Some e -> Eval.expr env e
                    in
                    match volume with
                    | Error m -> err := Some m
                    | Ok w ->
                      Digraph.add_edge ~w g (src.offset + src_rank) (dst.offset + dst_rank)
                  end
                end
              end
            end);
        match !err with
        | Some m -> Error (Printf.sprintf "phase %S: %s" cp.Ast.cp_name m)
        | None -> Ok ())
      (Ok ()) cp.Ast.rules
  in
  Ok (cp.Ast.cp_name, g)

let compile_exphase env spaces n (ep : Ast.exphase) =
  let costs = Array.make n 0 in
  match ep.Ast.ep_pattern with
  | None ->
    let* c = match ep.Ast.ep_cost with None -> Ok 1 | Some e -> Eval.expr env e in
    Array.fill costs 0 n c;
    Ok (ep.Ast.ep_name, costs)
  | Some (type_name, vars) -> begin
    match find_space spaces type_name with
    | None -> Error (Printf.sprintf "exphase %S: unknown node type %S" ep.Ast.ep_name type_name)
    | Some space ->
      if List.length vars <> List.length space.dims then
        Error (Printf.sprintf "exphase %S: pattern arity mismatch" ep.Ast.ep_name)
      else begin
        let err = ref None in
        iter_space space.dims (fun values ->
            if !err = None then begin
              let env = List.combine vars values @ env in
              let c = match ep.Ast.ep_cost with None -> Ok 1 | Some e -> Eval.expr env e in
              match (c, rank_of space.dims values) with
              | Ok c, Some r -> costs.(space.offset + r) <- c
              | Error m, _ -> err := Some m
              | Ok _, None -> assert false
            end);
        match !err with
        | Some m -> Error (Printf.sprintf "exphase %S: %s" ep.Ast.ep_name m)
        | None -> Ok (ep.Ast.ep_name, costs)
      end
  end

let rec compile_pexpr env (pe : Ast.pexpr) =
  match pe with
  | Ast.PEps -> Ok Phase_expr.Epsilon
  | Ast.PPhase name -> Ok (Phase_expr.Comm name) (* fixed up to Exec below *)
  | Ast.PSeq (a, b) ->
    let* a = compile_pexpr env a in
    let* b = compile_pexpr env b in
    Ok (Phase_expr.Seq (a, b))
  | Ast.PPar (a, b) ->
    let* a = compile_pexpr env a in
    let* b = compile_pexpr env b in
    Ok (Phase_expr.Par (a, b))
  | Ast.PRep (a, e) ->
    let* a = compile_pexpr env a in
    let* k = Eval.expr env e in
    if k < 0 then Error (Printf.sprintf "negative repetition count %d" k)
    else Ok (Phase_expr.Repeat (a, k))

(* Phase names in the expression are resolved against declarations:
   comm phases become [Comm], exec phases [Exec]. *)
let rec resolve_kinds comms execs (pe : Phase_expr.t) =
  match pe with
  | Phase_expr.Epsilon -> Ok Phase_expr.Epsilon
  | Phase_expr.Comm name | Phase_expr.Exec name ->
    if List.mem name comms then Ok (Phase_expr.Comm name)
    else if List.mem name execs then Ok (Phase_expr.Exec name)
    else Error (Printf.sprintf "phase expression references undeclared phase %S" name)
  | Phase_expr.Seq (a, b) ->
    let* a = resolve_kinds comms execs a in
    let* b = resolve_kinds comms execs b in
    Ok (Phase_expr.Seq (a, b))
  | Phase_expr.Par (a, b) ->
    let* a = resolve_kinds comms execs a in
    let* b = resolve_kinds comms execs b in
    Ok (Phase_expr.Par (a, b))
  | Phase_expr.Repeat (a, k) ->
    let* a = resolve_kinds comms execs a in
    Ok (Phase_expr.Repeat (a, k))

let compile ?(bindings = []) (program : Ast.program) =
  let needed = program.Ast.params @ program.Ast.imports in
  let* () =
    List.fold_left
      (fun acc p ->
        let* () = acc in
        if List.mem_assoc p bindings then Ok ()
        else Error (Printf.sprintf "missing binding for parameter %S" p))
      (Ok ()) needed
  in
  let env = bindings in
  (* spawn trees are node spaces too: 2^(depth+1)-1 tasks each *)
  let* spawn_types =
    List.fold_left
      (fun acc (sp : Ast.spawntree) ->
        let* l = acc in
        let* d = Eval.expr env sp.Ast.sp_depth in
        if d < 0 then Error (Printf.sprintf "spawntree %S: negative depth" sp.Ast.sp_name)
        else if d > 19 then
          (* 2^(d+1)-1 tasks: anything deeper blows the task ceiling
             (and [lsl] past the word size is meaningless anyway) *)
          Error
            (Printf.sprintf "spawntree %S: depth %d too deep (max 19)" sp.Ast.sp_name d)
        else begin
          let count = (1 lsl (d + 1)) - 1 in
          Ok
            (( { Ast.nt_name = sp.Ast.sp_name;
                 nt_ranges = [ { Ast.lo = Ast.Int 0; hi = Ast.Int (count - 1) } ];
                 nt_symmetric = false;
                 nt_requires = None },
               d )
            :: l)
        end)
      (Ok []) program.Ast.spawns
  in
  let spawn_types = List.rev spawn_types in
  let* spaces =
    build_spaces env (program.Ast.nodetypes @ List.map fst spawn_types)
  in
  let* () = if spaces <> [] then Ok () else Error "program declares no node types" in
  let n = List.fold_left (fun acc s -> acc + s.count) 0 spaces in
  let* () = if n > 0 then Ok () else Error "program has zero tasks" in
  let* comm_phases =
    List.fold_left
      (fun acc cp ->
        let* l = acc in
        let* phase = compile_comphase env spaces n cp in
        Ok (phase :: l))
      (Ok []) program.Ast.comphases
  in
  let comm_phases = List.rev comm_phases in
  (* implicit spawn phases: parent -> children within each spawn tree *)
  let* spawn_phases =
    List.fold_left
      (fun acc ((nt : Ast.nodetype), _depth) ->
        let* l = acc in
        match find_space spaces nt.Ast.nt_name with
        | None -> Error "internal error: spawn space missing"
        | Some space ->
          let g = Digraph.create n in
          for i = 0 to space.count - 1 do
            List.iter
              (fun c ->
                if c < space.count then
                  Digraph.add_edge g (space.offset + i) (space.offset + c))
              [ (2 * i) + 1; (2 * i) + 2 ]
          done;
          let name = nt.Ast.nt_name ^ "_spawn" in
          if List.mem_assoc name comm_phases then
            Error (Printf.sprintf "phase name %S collides with the implicit spawn phase" name)
          else Ok ((name, g) :: l))
      (Ok []) spawn_types
  in
  let comm_phases = comm_phases @ List.rev spawn_phases in
  let* exec_phases =
    List.fold_left
      (fun acc ep ->
        let* l = acc in
        let* phase = compile_exphase env spaces n ep in
        Ok (phase :: l))
      (Ok []) program.Ast.exphases
  in
  let exec_phases = List.rev exec_phases in
  let* expr_raw = compile_pexpr env program.Ast.phases in
  let* expr =
    resolve_kinds (List.map fst comm_phases) (List.map fst exec_phases) expr_raw
  in
  let multi = List.length spaces > 1 in
  let node_labels = Array.make n "" in
  let node_types = Array.make n "" in
  let node_requires = Array.make n "" in
  List.iter
    (fun space ->
      let req = Option.value ~default:"" space.requires in
      iter_space space.dims (fun values ->
          match rank_of space.dims values with
          | Some r ->
            node_labels.(space.offset + r) <- label_string multi space.type_name values;
            node_types.(space.offset + r) <- space.type_name;
            node_requires.(space.offset + r) <- req
          | None -> assert false))
    spaces;
  let declared_symmetric =
    List.for_all (fun (nt : Ast.nodetype) -> nt.Ast.nt_symmetric) program.Ast.nodetypes
  in
  let* graph =
    Taskgraph.make ~node_labels ~node_types ~node_requires ~declared_symmetric
      ?declared_family:program.Ast.family ~name:program.Ast.prog_name ~n ~comm_phases
      ~exec_phases ~expr ()
  in
  let activation = Array.make n 0 in
  List.iter
    (fun ((nt : Ast.nodetype), _) ->
      match find_space spaces nt.Ast.nt_name with
      | None -> ()
      | Some space ->
        for i = 0 to space.count - 1 do
          let rec level v acc = if v = 0 then acc else level ((v - 1) / 2) (acc + 1) in
          activation.(space.offset + i) <- level i 0
        done)
    spawn_types;
  Ok { program; bindings; spaces; graph; activation }

let compile_source ?bindings source =
  let* program = Parser.parse source in
  compile ?bindings program

let node_id c type_name values =
  match find_space c.spaces type_name with
  | None -> None
  | Some space -> Option.map (fun r -> space.offset + r) (rank_of space.dims values)

let node_label_values c id =
  let space =
    List.find (fun s -> id >= s.offset && id < s.offset + s.count) c.spaces
  in
  values_of space.dims (id - space.offset)

let dump c =
  let buf = Buffer.create 1024 in
  let tg = c.graph in
  Buffer.add_string buf (Printf.sprintf "(algorithm %s\n" tg.Taskgraph.tg_name);
  Buffer.add_string buf
    (Printf.sprintf "  (bindings %s)\n"
       (String.concat " "
          (List.map (fun (k, v) -> Printf.sprintf "(%s %d)" k v) c.bindings)));
  Buffer.add_string buf (Printf.sprintf "  (tasks %d)\n" tg.Taskgraph.n);
  List.iter
    (fun space ->
      Buffer.add_string buf
        (Printf.sprintf "  (nodetype %s (offset %d) (count %d) (dims %s)%s)\n"
           space.type_name space.offset space.count
           (String.concat " "
              (List.map (fun (lo, hi) -> Printf.sprintf "(%d %d)" lo hi) space.dims))
           (match space.requires with
           | Some r -> Printf.sprintf " (requires %s)" r
           | None -> "")))
    c.spaces;
  List.iter
    (fun { Taskgraph.cp_name; edges } ->
      Buffer.add_string buf (Printf.sprintf "  (comphase %s\n" cp_name);
      List.iter
        (fun (u, v, w) ->
          Buffer.add_string buf (Printf.sprintf "    (edge %d %d (volume %d))\n" u v w))
        (Digraph.edges edges);
      Buffer.add_string buf "  )\n")
    tg.Taskgraph.comm_phases;
  List.iter
    (fun { Taskgraph.ep_name; costs } ->
      Buffer.add_string buf
        (Printf.sprintf "  (exphase %s (costs %s))\n" ep_name
           (String.concat " " (Array.to_list (Array.map string_of_int costs)))))
    tg.Taskgraph.exec_phases;
  Buffer.add_string buf
    (Printf.sprintf "  (phases %s))\n" (Phase_expr.to_string tg.Taskgraph.expr));
  Buffer.contents buf
