module Taskgraph = Oregami_taskgraph.Taskgraph
module Phase_expr = Oregami_taskgraph.Phase_expr
module Topology = Oregami_topology.Topology
module Faults = Oregami_topology.Faults
module Mapping = Oregami_mapper.Mapping
module Repair = Oregami_mapper.Repair
module Netsim = Oregami_metrics.Netsim

type regime = { rg_expr : Phase_expr.t; rg_comms : string list }

(* top-level sequence chunks *)
let rec seq_chunks = function
  | Phase_expr.Seq (a, b) -> seq_chunks a @ seq_chunks b
  | e -> [ e ]

let split_regimes expr =
  let chunks = seq_chunks expr in
  let of_chunk e = { rg_expr = e; rg_comms = Phase_expr.comm_names e } in
  let shares a b = List.exists (fun c -> List.mem c b.rg_comms) a.rg_comms in
  let merge a b =
    {
      rg_expr = Phase_expr.Seq (a.rg_expr, b.rg_expr);
      rg_comms = List.sort_uniq compare (a.rg_comms @ b.rg_comms);
    }
  in
  (* merge adjacent chunks that reuse a communication phase (no point
     remapping inside a repeated pattern), and fold pure-exec chunks
     into their predecessor *)
  List.fold_left
    (fun acc chunk ->
      let r = of_chunk chunk in
      match acc with
      | prev :: rest when r.rg_comms = [] || prev.rg_comms = [] || shares prev r ->
        merge prev r :: rest
      | _ -> r :: acc)
    [] chunks
  |> List.rev

let sub_taskgraph tg expr =
  (* only the regime's own phases: the mapper must see the regime's
     communication structure, not the whole program's *)
  let comms = Phase_expr.comm_names expr and execs = Phase_expr.exec_names expr in
  Taskgraph.make
    ~node_labels:tg.Taskgraph.node_labels ~node_types:tg.Taskgraph.node_types
    ~node_requires:tg.Taskgraph.node_requires
    ~declared_symmetric:tg.Taskgraph.declared_symmetric ~name:tg.Taskgraph.tg_name
    ~n:tg.Taskgraph.n
    ~comm_phases:
      (tg.Taskgraph.comm_phases
      |> List.filter (fun (cp : Taskgraph.comm_phase) -> List.mem cp.Taskgraph.cp_name comms)
      |> List.map (fun (cp : Taskgraph.comm_phase) -> (cp.Taskgraph.cp_name, cp.Taskgraph.edges)))
    ~exec_phases:
      (tg.Taskgraph.exec_phases
      |> List.filter (fun (ep : Taskgraph.exec_phase) -> List.mem ep.Taskgraph.ep_name execs)
      |> List.map (fun (ep : Taskgraph.exec_phase) -> (ep.Taskgraph.ep_name, ep.Taskgraph.costs)))
    ~expr ()

type plan = {
  static_mapping : Mapping.t;
  static_makespan : int;
  regime_mappings : (regime * Mapping.t) list;
  regime_makespans : int list;
  migration_time : int;
  remap_makespan : int;
  worthwhile : bool;
}

let plan ?options tg topo =
  let ( let* ) = Result.bind in
  let* static_mapping = Driver.map_taskgraph ?options tg topo in
  let static_makespan = (Netsim.run static_mapping).Netsim.makespan in
  let regimes = split_regimes tg.Taskgraph.expr in
  let* regime_mappings =
    List.fold_left
      (fun (i, acc) r ->
        let tagged res =
          (* say which regime failed: "regime 2 (shift,gather): ..." *)
          Result.map_error
            (fun e ->
              Printf.sprintf "regime %d (%s): %s" i
                (String.concat "," r.rg_comms) e)
            res
        in
        ( i + 1,
          let* l = acc in
          let* sub = tagged (sub_taskgraph tg r.rg_expr) in
          let* m = tagged (Driver.map_taskgraph ?options sub topo) in
          Ok ((r, m) :: l) ))
      (1, Ok []) regimes
    |> snd
  in
  let regime_mappings = List.rev regime_mappings in
  let regime_makespans =
    List.map (fun (_, m) -> (Netsim.run m).Netsim.makespan) regime_mappings
  in
  (* every task that moves ships its state in one synchronous step;
     the simulation itself lives in Netsim so fault recovery can price
     evacuations with the same model *)
  let rec migrations = function
    | (_, a) :: ((_, b) :: _ as rest) ->
      Netsim.migration_time topo (Mapping.assignment a) (Mapping.assignment b)
      + migrations rest
    | [ _ ] | [] -> 0
  in
  let migration_time = migrations regime_mappings in
  let remap_makespan = List.fold_left ( + ) 0 regime_makespans + migration_time in
  Ok
    {
      static_mapping;
      static_makespan;
      regime_mappings;
      regime_makespans;
      migration_time;
      remap_makespan;
      worthwhile = List.length regime_mappings > 1 && remap_makespan < static_makespan;
    }

(* ------------------------------------------------------------------ *)
(* fault recovery: minimum-disruption repair vs. from-scratch remap   *)

type bill = { b_migration : int; b_makespan : int; b_moved : int }

let bill topo before m =
  let after = Mapping.assignment m in
  let moved = ref 0 in
  Array.iteri (fun t p -> if p <> after.(t) then incr moved) before;
  {
    b_migration = Netsim.migration_time topo before after;
    b_makespan = (Netsim.run m).Netsim.makespan;
    b_moved = !moved;
  }

(* minimum total disruption: migration traffic plus the steady-state
   makespan the survivors then run at; a tie keeps the repair, which
   disturbs fewer tasks *)
let repair_wins ~repair ~remap =
  repair.b_migration + repair.b_makespan <= remap.b_migration + remap.b_makespan

type recovery = {
  rc_faults : Faults.t;
  rc_base : Mapping.t;
  rc_base_makespan : int;
  rc_base_ms : float;
  rc_repair : Repair.t;
  rc_repair_bill : bill;
  rc_repair_ms : float;
  rc_remap : Mapping.t;
  rc_remap_bill : bill;
  rc_remap_ms : float;
  rc_repair_wins : bool;
}

let recover ?options ?compiled tg topo faults =
  let ( let* ) = Result.bind in
  let* () =
    if Faults.is_empty faults then Error "no faults to recover from" else Ok ()
  in
  let* view = Faults.degrade topo faults in
  (* per-phase wall-clock: how long the initial mapping, the repair,
     and the from-scratch remap each took — the operational question
     during recovery is whether repair is cheap enough to run inline *)
  let timed f =
    let r, s = Oregami_prelude.Clock.time f in
    (r, s *. 1e3)
  in
  let base_r, rc_base_ms =
    timed (fun () ->
        match compiled with
        | Some c -> Driver.map_compiled ?options c topo
        | None -> Driver.map_taskgraph ?options tg topo)
  in
  let* rc_base = base_r in
  let rc_base_makespan = (Netsim.run rc_base).Netsim.makespan in
  (* the repair honours the options the base mapping was produced
     under — its constraints recompiled against the degraded machine,
     so a pin on a dead processor refuses by name *)
  let repair_r, rc_repair_ms =
    timed (fun () -> Repair.repair ?options rc_base view.Faults.topo)
  in
  let* rc_repair = repair_r in
  let remap_r, rc_remap_ms =
    timed (fun () ->
        match compiled with
        | Some c -> Driver.map_compiled ?options ~faults c view.Faults.topo
        | None -> Driver.map_taskgraph ?options ~faults tg view.Faults.topo)
  in
  let* rc_remap =
    Result.map_error
      (fun e -> "from-scratch remap on the degraded topology failed: " ^ e)
      remap_r
  in
  let price = bill view.Faults.topo (Mapping.assignment rc_base) in
  let rc_repair_bill = price rc_repair.Repair.rp_mapping in
  let rc_remap_bill = price rc_remap in
  Ok
    {
      rc_faults = faults;
      rc_base;
      rc_base_makespan;
      rc_base_ms;
      rc_repair;
      rc_repair_bill;
      rc_repair_ms;
      rc_remap;
      rc_remap_bill;
      rc_remap_ms;
      rc_repair_wins = repair_wins ~repair:rc_repair_bill ~remap:rc_remap_bill;
    }
