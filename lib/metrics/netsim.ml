module Mapping = Oregami_mapper.Mapping
module Repair = Oregami_mapper.Repair
module Taskgraph = Oregami_taskgraph.Taskgraph
module Phase_expr = Oregami_taskgraph.Phase_expr
module Topology = Oregami_topology.Topology
module Faults = Oregami_topology.Faults
module Routes = Oregami_topology.Routes
module Distcache = Oregami_topology.Distcache
module Pqueue = Oregami_prelude.Pqueue

type switching = Store_and_forward | Wormhole

type params = { bandwidth : int; latency : int; switching : switching }

let default_params = { bandwidth = 1; latency = 1; switching = Store_and_forward }

let wormhole_params = { default_params with switching = Wormhole }

type report = {
  makespan : int;
  comm_time : int;
  exec_time : int;
  slot_times : int list;
  max_queue : int;
}

(* Directed channel id for (link, forward?) *)
let channel link forward = (2 * link) + if forward then 0 else 1

(* wormhole: a message holds every channel of its path for its whole
   service time; messages acquire paths greedily in release order
   (ties by insertion), waiting for the busiest channel on the path *)
let simulate_wormhole params topo messages =
  let nchannels = 2 * Topology.link_count topo in
  let busy_until = Array.make nchannels 0 in
  let max_queue = ref 0 in
  let finish_time = ref 0 in
  let channels_of route =
    let rec go nodes links acc =
      match (nodes, links) with
      | node :: (next :: _ as rest), link :: links ->
        let u, _ = Topology.link_endpoints topo link in
        ignore next;
        go rest links (channel link (node = u) :: acc)
      | _, [] -> List.rev acc
      | _, _ -> List.rev acc
    in
    go route.Routes.nodes route.Routes.links []
  in
  let ordered =
    List.stable_sort (fun (_, _, r1) (_, _, r2) -> compare r1 r2) messages
  in
  List.iter
    (fun (route, volume, release) ->
      let chs = channels_of route in
      if chs <> [] then begin
        let ready = List.fold_left (fun acc ch -> max acc busy_until.(ch)) release chs in
        if ready > release then max_queue := max !max_queue 1;
        let service =
          (List.length chs * params.latency)
          + ((volume + params.bandwidth - 1) / params.bandwidth)
        in
        let finish = ready + service in
        List.iter (fun ch -> busy_until.(ch) <- finish) chs;
        finish_time := max !finish_time finish
      end
      else finish_time := max !finish_time release)
    ordered;
  (!finish_time, !max_queue)

(* Simulate one communication step with per-message release times;
   returns (finish time of the last message, deepest queue).  [on_hop]
   sees every channel transmission as (channel, start, finish, volume),
   in simulation order. *)
let simulate_store_and_forward ?(on_hop = fun _ _ _ _ -> ()) params topo messages =
  let nchannels = 2 * Topology.link_count topo in
  let busy_until = Array.make nchannels 0 in
  let queue_depth = Array.make nchannels 0 in
  let max_queue = ref 0 in
  let finish_time = ref 0 in
  (* events: (time, (message_route_remaining, position_node, volume)) *)
  let pq = Pqueue.create () in
  List.iter
    (fun (route, volume, release) ->
      match route.Routes.nodes with
      | src :: _ ->
        finish_time := max !finish_time release;
        Pqueue.push pq release (route.Routes.links, src, volume)
      | [] -> ())
    messages;
  let hop_time volume = ((volume + params.bandwidth - 1) / params.bandwidth) + params.latency in
  let rec drain () =
    match Pqueue.pop pq with
    | None -> ()
    | Some (t, (links, node, volume)) -> begin
      match links with
      | [] ->
        finish_time := max !finish_time t;
        drain ()
      | link :: rest ->
        let u, v = Topology.link_endpoints topo link in
        let forward = node = u in
        let next_node = if forward then v else u in
        let ch = channel link forward in
        let start = max t busy_until.(ch) in
        if start > t then begin
          queue_depth.(ch) <- queue_depth.(ch) + 1;
          max_queue := max !max_queue queue_depth.(ch)
        end
        else queue_depth.(ch) <- 0;
        let finish = start + hop_time volume in
        busy_until.(ch) <- finish;
        on_hop ch start finish volume;
        Pqueue.push pq finish (rest, next_node, volume);
        drain ()
    end
  in
  drain ();
  (!finish_time, !max_queue)

type span = { sp_channel : int; sp_start : int; sp_finish : int; sp_volume : int }

let channel_name topo ch =
  let link = ch / 2 in
  let u, v = Topology.link_endpoints topo link in
  if ch land 1 = 0 then Printf.sprintf "%d->%d" u v else Printf.sprintf "%d->%d" v u

let simulate_released params topo messages =
  match params.switching with
  | Store_and_forward -> simulate_store_and_forward params topo messages
  | Wormhole -> simulate_wormhole params topo messages

(* synchronous step: everything released at t = 0 *)
let simulate_messages params topo messages =
  simulate_released params topo (List.map (fun (r, v) -> (r, v, 0)) messages)

let slot_messages (m : Mapping.t) slot =
  List.concat_map
    (fun name ->
      match List.find_opt (fun pr -> pr.Mapping.pr_phase = name) m.Mapping.routings with
      | None -> []
      | Some pr ->
        List.filter_map
          (fun re ->
            if re.Mapping.re_route.Routes.links = [] then None
            else Some (re.Mapping.re_route, re.Mapping.re_volume))
          pr.Mapping.pr_edges)
    slot.Phase_expr.comms

let exec_slot_time exec_loads slot =
  List.fold_left
    (fun acc name ->
      match List.assoc_opt name exec_loads with
      | Some per_proc -> max acc (Array.fold_left max 0 per_proc)
      | None -> acc)
    0 slot.Phase_expr.execs

let exec_loads (m : Mapping.t) =
  let tg = m.Mapping.tg in
  let procs = Topology.node_count m.Mapping.topo in
  List.map
    (fun (ep : Taskgraph.exec_phase) ->
      let per_proc = Array.make procs 0 in
      Array.iteri
        (fun task cost ->
          let p = Mapping.proc_of_task m task in
          per_proc.(p) <- per_proc.(p) + cost)
        ep.Taskgraph.costs;
      (ep.Taskgraph.ep_name, per_proc))
    tg.Taskgraph.exec_phases

(* one trace slot: its execution time, communication time and deepest
   channel queue *)
let simulate_slot params loads (m : Mapping.t) slot =
  let c, q = simulate_messages params m.Mapping.topo (slot_messages m slot) in
  (exec_slot_time loads slot, c, q)

let run ?(params = default_params) (m : Mapping.t) =
  let loads = exec_loads m in
  let trace = Phase_expr.trace m.Mapping.tg.Taskgraph.expr in
  let comm_time = ref 0 and exec_time = ref 0 and max_queue = ref 0 in
  let slot_times =
    List.map
      (fun slot ->
        let e, c, q = simulate_slot params loads m slot in
        max_queue := max !max_queue q;
        comm_time := !comm_time + c;
        exec_time := !exec_time + e;
        e + c)
      trace
  in
  {
    makespan = !comm_time + !exec_time;
    comm_time = !comm_time;
    exec_time = !exec_time;
    slot_times;
    max_queue = !max_queue;
  }

(* ------------------------------------------------------------------ *)
(* migration pricing and mid-trace fault events                       *)

let migration_volume = 8

let migration_time ?(params = default_params) topo before after =
  if Array.length before <> Array.length after then
    invalid_arg "Netsim.migration_time: assignment lengths differ";
  (* every task that moves ships its state in one synchronous step over
     the topology's deterministic routes — the Remap cost model.  A task
     stranded on a dead processor cannot ship from there (the node has
     no links); its state is restored from the lowest-numbered alive
     processor, standing in for the checkpoint / stable-storage host. *)
  let host =
    let rec go u =
      if u >= Topology.node_count topo then invalid_arg "Netsim.migration_time: no alive processor"
      else if Topology.alive topo u then u
      else go (u + 1)
    in
    go 0
  in
  let messages = ref [] in
  Array.iteri
    (fun t p ->
      let q = after.(t) in
      if p <> q then begin
        let src = if Topology.alive topo p then p else host in
        messages := (Distcache.deterministic topo src q, migration_volume, 0) :: !messages
      end)
    before;
  if !messages = [] then 0 else fst (simulate_released params topo !messages)

type fault_event = { at_slot : int; kill_procs : int list; kill_links : int list }

type recovery = {
  rv_fault_free : report;  (** the run as it would have gone, no faults *)
  rv_pre_time : int;  (** slots completed before the fault, original mapping *)
  rv_migration_time : int;  (** evacuation traffic on the degraded network *)
  rv_post_time : int;  (** remaining slots, repaired mapping *)
  rv_makespan : int;  (** pre + migration + post *)
  rv_delta : int;  (** recovery overhead vs. the fault-free makespan *)
  rv_repair : Repair.t;
}

let slot_time params loads m slot =
  let e, c, _ = simulate_slot params loads m slot in
  e + c

let run_with_fault ?(params = default_params) ?options (m : Mapping.t) event =
  let ( let* ) = Result.bind in
  let* faults =
    Faults.make ~procs:event.kill_procs ~links:event.kill_links m.Mapping.topo
  in
  let* () =
    if Faults.is_empty faults then Error "fault event kills nothing" else Ok ()
  in
  let* view = Faults.degrade m.Mapping.topo faults in
  let* rep = Repair.repair ?options m view.Faults.topo in
  let repaired = rep.Repair.rp_mapping in
  let trace = Phase_expr.trace m.Mapping.tg.Taskgraph.expr in
  let at = max 0 (min event.at_slot (List.length trace)) in
  let loads_before = exec_loads m and loads_after = exec_loads repaired in
  let pre = ref 0 and post = ref 0 in
  List.iteri
    (fun i slot ->
      if i < at then pre := !pre + slot_time params loads_before m slot
      else post := !post + slot_time params loads_after repaired slot)
    trace;
  let rv_migration_time =
    migration_time ~params view.Faults.topo (Mapping.assignment m)
      (Mapping.assignment repaired)
  in
  let rv_fault_free = run ~params m in
  let rv_makespan = !pre + rv_migration_time + !post in
  Ok
    {
      rv_fault_free;
      rv_pre_time = !pre;
      rv_migration_time;
      rv_post_time = !post;
      rv_makespan;
      rv_delta = rv_makespan - rv_fault_free.makespan;
      rv_repair = rep;
    }

let spans ?(params = default_params) (m : Mapping.t) phase =
  let slot = { Phase_expr.comms = [ phase ]; execs = [] } in
  let messages = List.map (fun (r, v) -> (r, v, 0)) (slot_messages m slot) in
  let spans = ref [] in
  let on_hop sp_channel sp_start sp_finish sp_volume =
    spans := { sp_channel; sp_start; sp_finish; sp_volume } :: !spans
  in
  ignore (simulate_store_and_forward ~on_hop params m.Mapping.topo messages);
  List.rev !spans
