module Digraph = Oregami_graph.Digraph
module Ugraph = Oregami_graph.Ugraph

type comm_phase = { cp_name : string; edges : Digraph.t }

type exec_phase = { ep_name : string; costs : int array }

type t = {
  tg_name : string;
  n : int;
  node_labels : string array;
  node_types : string array;
  node_requires : string array;
  comm_phases : comm_phase list;
  exec_phases : exec_phase list;
  expr : Phase_expr.t;
  declared_symmetric : bool;
  declared_family : string option;
}

let duplicates names =
  let sorted = List.sort compare names in
  let rec find = function
    | a :: (b :: _ as rest) -> if a = b then Some a else find rest
    | [ _ ] | [] -> None
  in
  find sorted

let make ?node_labels ?node_types ?node_requires ?(declared_symmetric = false)
    ?declared_family ~name ~n ~comm_phases ~exec_phases ~expr () =
  let ( let* ) r f = Result.bind r f in
  let* () = if n > 0 then Ok () else Error "task graph needs at least one task" in
  let cp_names = List.map fst comm_phases and ep_names = List.map fst exec_phases in
  let* () =
    match duplicates (cp_names @ ep_names) with
    | Some d -> Error (Printf.sprintf "duplicate phase name %S" d)
    | None -> Ok ()
  in
  let* () =
    List.fold_left
      (fun acc (pname, g) ->
        let* () = acc in
        if Digraph.node_count g = n then Ok ()
        else Error (Printf.sprintf "phase %S is over %d nodes, task graph has %d" pname
                      (Digraph.node_count g) n))
      (Ok ()) comm_phases
  in
  let* () =
    List.fold_left
      (fun acc (pname, costs) ->
        let* () = acc in
        if Array.length costs = n then Ok ()
        else Error (Printf.sprintf "exec phase %S has %d costs, task graph has %d tasks"
                      pname (Array.length costs) n))
      (Ok ()) exec_phases
  in
  let* () = Phase_expr.well_formed ~comms:cp_names ~execs:ep_names expr in
  let node_labels =
    match node_labels with Some l -> l | None -> Array.init n string_of_int
  in
  let node_types = match node_types with Some l -> l | None -> Array.make n "task" in
  let node_requires =
    match node_requires with Some l -> l | None -> Array.make n ""
  in
  let* () =
    if
      Array.length node_labels = n
      && Array.length node_types = n
      && Array.length node_requires = n
    then Ok ()
    else Error "node label/type/requires arrays must have one entry per task"
  in
  Ok
    {
      tg_name = name;
      n;
      node_labels;
      node_types;
      node_requires;
      comm_phases = List.map (fun (cp_name, edges) -> { cp_name; edges }) comm_phases;
      exec_phases = List.map (fun (ep_name, costs) -> { ep_name; costs }) exec_phases;
      expr;
      declared_symmetric;
      declared_family;
    }

let make_exn ?node_labels ?node_types ?node_requires ?declared_symmetric
    ?declared_family ~name ~n ~comm_phases ~exec_phases ~expr () =
  match
    make ?node_labels ?node_types ?node_requires ?declared_symmetric ?declared_family
      ~name ~n ~comm_phases ~exec_phases ~expr ()
  with
  | Ok tg -> tg
  | Error msg -> invalid_arg ("Taskgraph.make_exn: " ^ msg)

let comm_phase tg name = List.find_opt (fun cp -> cp.cp_name = name) tg.comm_phases

let exec_phase tg name = List.find_opt (fun ep -> ep.ep_name = name) tg.exec_phases

let comm_names tg = List.map (fun cp -> cp.cp_name) tg.comm_phases

let exec_names tg = List.map (fun ep -> ep.ep_name) tg.exec_phases

let static_graph_scaled scale tg =
  let g = Ugraph.create tg.n in
  List.iter
    (fun cp ->
      let k = scale cp in
      if k > 0 then
        List.iter
          (fun (u, v, w) -> if u <> v then Ugraph.add_edge ~w:(w * k) g u v)
          (Digraph.edges cp.edges))
    tg.comm_phases;
  g

let static_graph tg = static_graph_scaled (fun cp -> Phase_expr.count_comm tg.expr cp.cp_name) tg

let static_graph_unit tg = static_graph_scaled (fun _ -> 1) tg

let static_has_unit_edges tg =
  List.for_all (fun cp -> Phase_expr.count_comm tg.expr cp.cp_name > 0) tg.comm_phases

let phase_volume tg name =
  match comm_phase tg name with
  | Some cp -> Digraph.total_weight cp.edges
  | None -> invalid_arg (Printf.sprintf "Taskgraph.phase_volume: unknown phase %S" name)

let total_volume tg =
  List.fold_left
    (fun acc cp ->
      acc + (Phase_expr.count_comm tg.expr cp.cp_name * Digraph.total_weight cp.edges))
    0 tg.comm_phases

let total_exec_cost tg =
  List.fold_left
    (fun acc ep ->
      acc
      + Phase_expr.count_exec tg.expr ep.ep_name * Array.fold_left ( + ) 0 ep.costs)
    0 tg.exec_phases

let max_comm_degree tg = Ugraph.max_degree (static_graph_unit tg)

let pp_summary fmt tg =
  Format.fprintf fmt "@[<v>task graph %S: %d tasks" tg.tg_name tg.n;
  List.iter
    (fun cp ->
      Format.fprintf fmt "@,  comm phase %s: %d edges, volume %d" cp.cp_name
        (Digraph.edge_count cp.edges) (Digraph.total_weight cp.edges))
    tg.comm_phases;
  List.iter
    (fun ep ->
      Format.fprintf fmt "@,  exec phase %s: total cost %d" ep.ep_name
        (Array.fold_left ( + ) 0 ep.costs))
    tg.exec_phases;
  Format.fprintf fmt "@,  phase expression: %s" (Phase_expr.to_string tg.expr);
  Format.fprintf fmt "@]"
