module Topology = Oregami_topology.Topology
module Faults = Oregami_topology.Faults
module Taskgraph = Oregami_taskgraph.Taskgraph
module Ugraph = Oregami_graph.Ugraph
module Constraints = Oregami_mapper.Constraints
module Ctx = Oregami_mapper.Ctx
module Incremental = Oregami_mapper.Incremental
module Repair = Oregami_mapper.Repair
module Mapping = Oregami_mapper.Mapping
module Pipeline = Oregami_mapper.Pipeline
module Netsim = Oregami_metrics.Netsim
module Compile = Oregami_larcs.Compile
module Rng = Oregami_prelude.Rng

let ( let* ) = Result.bind

type arrival = {
  ar_name : string;
  ar_program : string;
  ar_procs : int option;
  ar_bindings : (string * int) list;
  ar_constraints : Constraints.spec;
}

type event =
  | Arrive of arrival
  | Depart of string
  | Kill of { procs : int list; links : int list }
  | Revive of { procs : int list; links : int list }

let ids l = String.concat "," (List.map string_of_int l)

let describe_faultish verb procs links =
  let parts =
    List.filter_map Fun.id
      [
        (if procs = [] then None else Some (Printf.sprintf "procs %s" (ids procs)));
        (if links = [] then None else Some (Printf.sprintf "links %s" (ids links)));
      ]
  in
  verb ^ " " ^ if parts = [] then "nothing" else String.concat " " parts

let describe_event = function
  | Arrive a ->
    Printf.sprintf "arrive %s (%s%s)" a.ar_name a.ar_program
      (match a.ar_procs with Some k -> Printf.sprintf ", %d procs" k | None -> "")
  | Depart name -> "depart " ^ name
  | Kill { procs; links } -> describe_faultish "kill" procs links
  | Revive { procs; links } -> describe_faultish "revive" procs links

type config = {
  cf_queue_bound : int;
  cf_max_retries : int;
  cf_defrag_threshold : float;
  cf_route_cap : int;
}

let default_config =
  {
    cf_queue_bound = 16;
    cf_max_retries = 3;
    cf_defrag_threshold = 0.5;
    cf_route_cap = 64;
  }

type sample = {
  s_clock : int;
  s_event : string;
  s_utilization : float;
  s_fragmentation : float;
  s_running : int;
  s_queued : int;
  s_free : int;
}

type report = {
  rp_events : int;
  rp_admitted : int;
  rp_completed : int;
  rp_cancelled : int;
  rp_refused : (string * string) list;
  rp_shed : string list;
  rp_repairs : int;
  rp_remaps : int;
  rp_evictions : int;
  rp_repacks : int;
  rp_repacks_declined : int;
  rp_migration_total : int;
  rp_chaos_applied : int;
  rp_chaos_refused : int;
  rp_running : string list;
  rp_queued : string list;
  rp_samples : sample list;
  rp_log : string list;
}

type lease = {
  l_arrival : arrival;
  l_tg : Taskgraph.t;
  l_activation : int array;
  mutable l_procs : int list;  (** the leased region, sorted *)
  mutable l_mapping : Mapping.t;
  mutable l_makespan : int;  (** Netsim steady-state, cached for pricing *)
}

type pending = {
  p_arrival : arrival;
  p_tg : Taskgraph.t;
  p_activation : int array;
  mutable p_attempts : int;
  mutable p_not_before : int;  (** clock value gating the next attempt *)
  mutable p_last_error : string;
}

type t = {
  cfg : config;
  base : Topology.t;
  mutable view : Faults.view;
  leases : (string, lease) Hashtbl.t;
  mutable queue : pending list;  (** FIFO, bounded by [cf_queue_bound] *)
  mutable clock : int;
  mutable explain : (string -> unit) option;
  mutable log : string list;  (** reversed *)
  mutable samples : sample list;  (** reversed *)
  mutable events : int;
  mutable admitted : int;
  mutable completed : int;
  mutable cancelled : int;
  mutable refused : (string * string) list;  (** reversed *)
  mutable shed : string list;  (** reversed *)
  mutable repairs : int;
  mutable remaps : int;
  mutable evictions : int;
  mutable repacks : int;
  mutable repacks_declined : int;
  mutable migration_total : int;
  mutable chaos_applied : int;
  mutable chaos_refused : int;
}

let logf t fmt =
  Printf.ksprintf
    (fun line ->
      let line = Printf.sprintf "[%d] %s" t.clock line in
      t.log <- line :: t.log;
      match t.explain with Some f -> f line | None -> ())
    fmt

let refuse t name reason =
  t.refused <- (name, reason) :: t.refused;
  logf t "refuse %s: %s" name reason

(* ------------------------------------------------------------------ *)
(* occupancy *)

let leased_procs t =
  let topo = t.view.Faults.topo in
  Hashtbl.fold (fun _ l acc -> l.l_procs @ acc) t.leases []
  |> List.sort_uniq compare
  |> List.filter (Topology.alive topo)

let free_procs t =
  let topo = t.view.Faults.topo in
  let leased = Array.make (Topology.node_count topo) false in
  Hashtbl.iter (fun _ l -> List.iter (fun p -> leased.(p) <- true) l.l_procs) t.leases;
  List.filter (fun p -> not leased.(p)) (Topology.alive_procs topo)

let lease_assignment t name =
  match Hashtbl.find_opt t.leases name with
  | None -> None
  | Some l ->
    Some (l.l_tg, t.view.Faults.topo, Mapping.assignment l.l_mapping)

let free_components topo free =
  (* connected components of [free] in BFS order, so a prefix of a
     component is itself near-connected *)
  let in_free = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace in_free p ()) free;
  let g = Topology.graph topo in
  let seen = Hashtbl.create 16 in
  let component seed =
    let q = Queue.create () in
    Queue.add seed q;
    Hashtbl.replace seen seed ();
    let acc = ref [] in
    while not (Queue.is_empty q) do
      let p = Queue.pop q in
      acc := p :: !acc;
      List.iter
        (fun (u, _) ->
          if Hashtbl.mem in_free u && not (Hashtbl.mem seen u) then begin
            Hashtbl.replace seen u ();
            Queue.add u q
          end)
        (Ugraph.neighbors g p)
    done;
    List.rev !acc
  in
  List.filter_map
    (fun p -> if Hashtbl.mem seen p then None else Some (component p))
    free

let utilization t =
  match Topology.alive_count t.view.Faults.topo with
  | 0 -> 0.0
  | alive -> float_of_int (List.length (leased_procs t)) /. float_of_int alive

(* how shattered the free pool is: 1 - largest connected free block /
   free total *)
let fragmentation t =
  match free_procs t with
  | [] | [ _ ] -> 0.0
  | free ->
    let largest =
      List.fold_left
        (fun acc c -> max acc (List.length c))
        0 (free_components t.view.Faults.topo free)
    in
    1.0 -. (float_of_int largest /. float_of_int (List.length free))

let sample t what =
  t.samples <-
    {
      s_clock = t.clock;
      s_event = what;
      s_utilization = utilization t;
      s_fragmentation = fragmentation t;
      s_running = Hashtbl.length t.leases;
      s_queued = List.length t.queue;
      s_free = List.length (free_procs t);
    }
    :: t.samples

(* ------------------------------------------------------------------ *)
(* region allocation: best-fit connected block out of the free pool *)

(* best fit out of [free], which holds at least [want] processors: the
   smallest connected free block that fits (keeping big blocks for big
   jobs), else blocks spanned largest-first.  The region and how many
   blocks it spans. *)
let choose_region topo free want =
  let comps = free_components topo free in
  let size = List.length in
  match
    List.sort (fun a b -> compare (size a) (size b)) comps
    |> List.find_opt (fun c -> size c >= want)
  with
  | Some best -> (List.filteri (fun i _ -> i < want) best, 1)
  | None ->
    let rec take acc spans = function
      | _ when size acc >= want -> (List.filteri (fun i _ -> i < want) acc, spans)
      | [] -> (acc, spans)
      | c :: rest -> take (acc @ c) (spans + 1) rest
    in
    take [] 0 (List.sort (fun a b -> compare (size b) (size a)) comps)

(* [allocate t ~exclude want] picks [want] processors from the free
   pool (minus [exclude]) with [choose_region] *)
let allocate t ~exclude want =
  let free = List.filter (fun p -> not (List.mem p exclude)) (free_procs t) in
  if List.length free < want then
    Error
      (Printf.sprintf "%d free processor%s, need %d" (List.length free)
         (if List.length free = 1 then "" else "s")
         want)
  else Ok (choose_region t.view.Faults.topo free want)

(* ------------------------------------------------------------------ *)
(* placement *)

(* a lease's mapping context on the current machine view: its
   constraints compiled once, the cluster's route cap, default routing
   (MM-Route at lease sizes, coarse above the multilevel threshold) *)
let lease_options t spec =
  { Ctx.default_options with Ctx.route_cap = t.cfg.cf_route_cap; Ctx.constraints = spec }

let lease_ctx t spec tg =
  let ctx = Ctx.of_taskgraph ~options:(lease_options t spec) tg t.view.Faults.topo in
  match Constraints.errors ctx.Ctx.constraints with
  | e :: _ -> Error ("constraints: " ^ e)
  | [] -> Ok ctx

let build_mapping ctx activation region =
  let topo = ctx.Ctx.topo in
  let in_region = Array.make (Topology.node_count topo) false in
  List.iter (fun p -> in_region.(p) <- true) region;
  let n = ctx.Ctx.tg.Taskgraph.n in
  let k = max 1 (List.length region) in
  let cap = max 1 ((n + k - 1) / k) in
  let feasible task p =
    in_region.(p) && Constraints.feasible ctx.Ctx.constraints ~task ~proc:p
  in
  let* proc_of = Incremental.try_place ~feasible (Ctx.static ctx) ~activation ~cap topo in
  Result.map_error
    (fun e -> "placement failed validation: " ^ e)
    (Pipeline.route ctx "cluster-incremental" (Mapping.clusters proc_of))

(* processors the mapping actually occupies, sorted *)
let used_procs m =
  Array.to_list (Mapping.assignment m) |> List.sort_uniq compare

(* Try to give [p] a lease right now.  [Error] reasons are transient —
   the machine may free up, grow back, or defragment. *)
let try_admit t (p : pending) =
  let ar = p.p_arrival in
  let topo = t.view.Faults.topo in
  let n = p.p_tg.Taskgraph.n in
  let* ctx = lease_ctx t ar.ar_constraints p.p_tg in
  (* pinned processors must be part of the region, whatever the
     allocator would prefer *)
  let pinned = List.sort_uniq compare (List.map snd ar.ar_constraints.Constraints.pins) in
  let free = free_procs t in
  let* () =
    List.fold_left
      (fun acc pr ->
        let* () = acc in
        if not (Topology.alive topo pr) then
          Error (Printf.sprintf "pinned processor %d is dead" pr)
        else if not (List.mem pr free) then
          Error (Printf.sprintf "pinned processor %d is leased" pr)
        else Ok ())
      (Ok ()) pinned
  in
  let want =
    match ar.ar_procs with Some k -> k | None -> max 1 ((n + 1) / 2)
  in
  let want = min want (Topology.alive_count topo) in
  let* region, spans =
    if want <= List.length pinned then Ok (pinned, 1)
    else
      let* rest, spans = allocate t ~exclude:pinned (want - List.length pinned) in
      Ok (List.sort_uniq compare (pinned @ rest), spans)
  in
  let* m = build_mapping ctx p.p_activation region in
  let makespan = (Netsim.run m).Netsim.makespan in
  let lease =
    {
      l_arrival = ar;
      l_tg = p.p_tg;
      l_activation = p.p_activation;
      l_procs = List.sort_uniq compare region;
      l_mapping = m;
      l_makespan = makespan;
    }
  in
  Hashtbl.replace t.leases ar.ar_name lease;
  t.admitted <- t.admitted + 1;
  logf t "admit %s: %d tasks on %d procs {%s}%s, makespan %d" ar.ar_name n
    (List.length region) (ids lease.l_procs)
    (if spans > 1 then Printf.sprintf " spanning %d fragments" spans else "")
    makespan;
  Ok ()

(* ------------------------------------------------------------------ *)
(* admission queue: bounded FIFO, exponential backoff in trace time *)

let enqueue t p =
  if List.length t.queue >= t.cfg.cf_queue_bound then begin
    t.shed <- p.p_arrival.ar_name :: t.shed;
    logf t "shed %s: queue full (%d waiting)" p.p_arrival.ar_name
      (List.length t.queue)
  end
  else begin
    t.queue <- t.queue @ [ p ];
    logf t "queue %s (attempt %d): %s" p.p_arrival.ar_name p.p_attempts
      p.p_last_error
  end

let drain t =
  let keep =
    List.filter
      (fun p ->
        if p.p_not_before > t.clock then true
        else begin
          match try_admit t p with
          | Ok () -> false
          | Error e ->
            p.p_attempts <- p.p_attempts + 1;
            p.p_last_error <- e;
            if p.p_attempts > t.cfg.cf_max_retries then begin
              refuse t p.p_arrival.ar_name
                (Printf.sprintf "placement failed after %d attempts: %s"
                   p.p_attempts e);
              false
            end
            else begin
              (* exponential backoff in trace time, so a transiently
                 full machine is not hammered on every event *)
              p.p_not_before <- t.clock + (1 lsl p.p_attempts);
              true
            end
        end)
      t.queue
  in
  t.queue <- keep

(* ------------------------------------------------------------------ *)
(* chaos healing: price repair vs. fresh re-placement vs. eviction *)

let heal t name l =
  let topo = t.view.Faults.topo in
  let alive_region = List.filter (Topology.alive topo) l.l_procs in
  let dead_in_lease = List.filter (fun p -> not (Topology.alive topo p)) l.l_procs in
  let free = free_procs t in
  let allowed = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace allowed p ()) alive_region;
  List.iter (fun p -> Hashtbl.replace allowed p ()) free;
  let price = Remap.bill topo (Mapping.assignment l.l_mapping) in
  let repair_cand =
    match
      Repair.repair
        ~options:(lease_options t l.l_arrival.ar_constraints)
        ~allowed:(Hashtbl.mem allowed) l.l_mapping topo
    with
    | Error e -> Error ("repair: " ^ e)
    | Ok rep ->
      let m = rep.Repair.rp_mapping in
      Ok (m, price m)
  in
  let commit which (m, (b : Remap.bill)) =
    l.l_mapping <- m;
    l.l_makespan <- b.Remap.b_makespan;
    l.l_procs <- List.sort_uniq compare (alive_region @ used_procs m);
    t.migration_total <- t.migration_total + b.Remap.b_migration;
    logf t "%s %s: %d moved, migration %d, makespan %d, region {%s}" which name
      b.Remap.b_moved b.Remap.b_migration b.Remap.b_makespan (ids l.l_procs)
  in
  if dead_in_lease = [] then begin
    (* untouched placement; routes may still cross freshly dead links
       or processors, so re-route via a zero-move repair *)
    match repair_cand with
    | Ok ((_, b) as cand) when b.Remap.b_moved = 0 -> commit "reroute" cand
    | Ok cand ->
      t.repairs <- t.repairs + 1;
      commit "repair" cand
    | Error e ->
      t.evictions <- t.evictions + 1;
      Hashtbl.remove t.leases name;
      logf t "evict %s: %s" name e;
      enqueue t
        {
          p_arrival = l.l_arrival;
          p_tg = l.l_tg;
          p_activation = l.l_activation;
          p_attempts = 0;
          p_not_before = t.clock;
          p_last_error = e;
        }
  end
  else begin
    logf t "%s lost procs {%s}" name (ids dead_in_lease);
    let remap_cand =
      let want = List.length l.l_procs in
      let* grown, _ =
        if want <= List.length alive_region then Ok ([], 1)
        else allocate t ~exclude:alive_region (want - List.length alive_region)
      in
      let region = List.sort_uniq compare (alive_region @ grown) in
      let* ctx = lease_ctx t l.l_arrival.ar_constraints l.l_tg in
      let* m = build_mapping ctx l.l_activation region in
      Ok (m, price m)
    in
    let cost (b : Remap.bill) = Printf.sprintf "%d+%d" b.Remap.b_migration b.Remap.b_makespan in
    match (repair_cand, remap_cand) with
    | Ok ((_, rb) as r), Ok ((_, sb) as s) ->
      if Remap.repair_wins ~repair:rb ~remap:sb then begin
        t.repairs <- t.repairs + 1;
        logf t "heal %s: repair wins (%s vs remap %s)" name (cost rb) (cost sb);
        commit "repair" r
      end
      else begin
        t.remaps <- t.remaps + 1;
        logf t "heal %s: remap wins (%s vs repair %s)" name (cost sb) (cost rb);
        commit "remap" s
      end
    | Ok r, Error e ->
      t.repairs <- t.repairs + 1;
      logf t "heal %s: repair only (%s)" name e;
      commit "repair" r
    | Error e, Ok s ->
      t.remaps <- t.remaps + 1;
      logf t "heal %s: remap only (%s)" name e;
      commit "remap" s
    | Error er, Error es ->
      t.evictions <- t.evictions + 1;
      Hashtbl.remove t.leases name;
      logf t "evict %s: %s; %s" name er es;
      enqueue t
        {
          p_arrival = l.l_arrival;
          p_tg = l.l_tg;
          p_activation = l.l_activation;
          p_attempts = 0;
          p_not_before = t.clock;
          p_last_error = er;
        }
  end

(* ------------------------------------------------------------------ *)
(* defragmenting re-pack *)

let repack_candidate t =
  (* re-place every lease into a freshly allocated compact region,
     biggest jobs first, against an empty machine *)
  let topo = t.view.Faults.topo in
  let leases =
    Hashtbl.fold (fun name l acc -> (name, l) :: acc) t.leases []
    |> List.sort (fun (na, a) (nb, b) ->
           compare (-List.length a.l_procs, na) (-List.length b.l_procs, nb))
  in
  let pins_of l =
    List.sort_uniq compare (List.map snd l.l_arrival.ar_constraints.Constraints.pins)
  in
  (* every lease's pinned processors stay reserved for it: a lease
     placed earlier must not take them into its own compact region *)
  let reserved = List.concat_map (fun (_, l) -> pins_of l) leases in
  let taken = ref [] in
  List.fold_left
    (fun acc (name, l) ->
      let* plan = acc in
      let* ctx =
        Result.map_error (fun e -> name ^ ": " ^ e)
          (lease_ctx t l.l_arrival.ar_constraints l.l_tg)
      in
      let pinned = pins_of l in
      let* () =
        match List.find_opt (fun p -> List.mem p !taken) pinned with
        | Some p -> Error (Printf.sprintf "%s: pinned processor %d is taken" name p)
        | None -> Ok ()
      in
      let free =
        Topology.alive_procs topo
        |> List.filter (fun p -> not (List.mem p !taken) && not (List.mem p reserved))
      in
      let want = max 1 (List.length l.l_procs - List.length pinned) in
      let* region =
        if List.length free < want then
          Error (Printf.sprintf "%s: %d free, need %d" name (List.length free) want)
        else Ok (fst (choose_region topo free want))
      in
      let region = List.sort_uniq compare (pinned @ region) in
      let* m =
        Result.map_error (fun e -> name ^ ": " ^ e)
          (build_mapping ctx l.l_activation region)
      in
      taken := region @ !taken;
      let migration =
        Netsim.migration_time topo (Mapping.assignment l.l_mapping) (Mapping.assignment m)
      in
      Ok ((name, l, region, m, migration) :: plan))
    (Ok []) leases

let maybe_repack t =
  (* fragmentation is priced only when a re-pack could help someone *)
  let waiting = t.queue <> [] && Hashtbl.length t.leases > 0 in
  let frag = if waiting then fragmentation t else 0.0 in
  if waiting && frag > t.cfg.cf_defrag_threshold then begin
    match repack_candidate t with
    | Error e -> logf t "repack abandoned: %s" e
    | Ok plan ->
      let total_migration =
        List.fold_left (fun acc (_, _, _, _, m) -> acc + m) 0 plan
      in
      (* projected queue wait: each waiting job roughly waits out the
         mean remaining makespan of a running lease *)
      let mean_makespan =
        let n = Hashtbl.length t.leases in
        Hashtbl.fold (fun _ l acc -> acc + l.l_makespan) t.leases 0 / max 1 n
      in
      let queue_wait = List.length t.queue * mean_makespan in
      if total_migration < queue_wait then begin
        t.repacks <- t.repacks + 1;
        t.migration_total <- t.migration_total + total_migration;
        List.iter
          (fun (name, l, region, m, migration) ->
            l.l_procs <- region;
            l.l_mapping <- m;
            l.l_makespan <- (Netsim.run m).Netsim.makespan;
            logf t "repack %s -> {%s} (migration %d)" name (ids region) migration)
          plan;
        logf t "repack committed: fragmentation %.2f, migration %d < queue wait %d"
          frag total_migration queue_wait;
        drain t
      end
      else begin
        t.repacks_declined <- t.repacks_declined + 1;
        logf t "repack declined: migration %d >= queue wait %d (fragmentation %.2f)"
          total_migration queue_wait frag
      end
  end

(* ------------------------------------------------------------------ *)
(* the event loop *)

let create ?(config = default_config) base =
  if Topology.node_count base = 0 then Error "empty machine"
  else
    let* view = Faults.degrade base Faults.none in
    Ok
      {
        cfg = config;
        base;
        view;
        leases = Hashtbl.create 16;
        queue = [];
        clock = 0;
        explain = None;
        log = [];
        samples = [];
        events = 0;
        admitted = 0;
        completed = 0;
        cancelled = 0;
        refused = [];
        shed = [];
        repairs = 0;
        remaps = 0;
        evictions = 0;
        repacks = 0;
        repacks_declined = 0;
        migration_total = 0;
        chaos_applied = 0;
        chaos_refused = 0;
      }

let known t name =
  Hashtbl.mem t.leases name
  || List.exists (fun p -> p.p_arrival.ar_name = name) t.queue

(* graph + activation for an arrival.  Failures here are permanent —
   retrying cannot fix a missing program. *)
let load_arrival ar =
  let* p = Result.bind (Service.source ar.ar_program) (Service.build ~bindings:ar.ar_bindings) in
  match p.Service.compiled with
  | Some c -> Ok (p.Service.graph, c.Compile.activation)
  | None -> Ok (p.Service.graph, Array.make p.Service.graph.Taskgraph.n 0)

let arrive t ar =
  if known t ar.ar_name then
    refuse t ar.ar_name "duplicate job name (already running or queued)"
  else begin
    match
      let* () =
        match ar.ar_procs with
        | Some k when k <= 0 -> Error (Printf.sprintf "requested %d processors" k)
        | Some k when k > Topology.node_count t.base ->
          Error
            (Printf.sprintf "requested %d processors, machine has %d" k
               (Topology.node_count t.base))
        | _ -> Ok ()
      in
      load_arrival ar
    with
    | Error e -> refuse t ar.ar_name e
    | Ok (tg, activation) ->
      let p =
        {
          p_arrival = ar;
          p_tg = tg;
          p_activation = activation;
          p_attempts = 0;
          p_not_before = t.clock;
          p_last_error = "";
        }
      in
      (match try_admit t p with
      | Ok () -> ()
      | Error e ->
        p.p_attempts <- 1;
        p.p_not_before <- t.clock + 1;
        p.p_last_error <- e;
        enqueue t p)
  end

let depart t name =
  match Hashtbl.find_opt t.leases name with
  | Some l ->
    Hashtbl.remove t.leases name;
    t.completed <- t.completed + 1;
    logf t "depart %s: released {%s}" name (ids l.l_procs);
    drain t;
    maybe_repack t
  | None ->
    let before = List.length t.queue in
    t.queue <- List.filter (fun p -> p.p_arrival.ar_name <> name) t.queue;
    if List.length t.queue < before then begin
      t.cancelled <- t.cancelled + 1;
      logf t "cancel %s: departed while queued" name
    end
    else logf t "depart %s: unknown job (ignored)" name

let kill t procs links =
  let f = t.view.Faults.faults in
  match
    let* merged =
      Faults.make ~procs:(procs @ f.Faults.procs) ~links:(links @ f.Faults.links)
        t.base
    in
    Faults.degrade t.base merged
  with
  | Error e ->
    t.chaos_refused <- t.chaos_refused + 1;
    logf t "chaos refused (%s): %s" (describe_faultish "kill" procs links) e
  | Ok view ->
    t.view <- view;
    t.chaos_applied <- t.chaos_applied + 1;
    logf t "chaos: %s (%s)" (describe_faultish "kill" procs links)
      (Faults.describe view.Faults.faults);
    (* heal every lease: even untouched placements may route through
       the freshly dead hardware *)
    Hashtbl.fold (fun name l acc -> (name, l) :: acc) t.leases []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.iter (fun (name, l) -> heal t name l);
    drain t

let revive t procs links =
  match Faults.revive ~procs ~links t.view with
  | Error e ->
    t.chaos_refused <- t.chaos_refused + 1;
    logf t "chaos refused (%s): %s" (describe_faultish "revive" procs links) e
  | Ok view ->
    t.view <- view;
    t.chaos_applied <- t.chaos_applied + 1;
    logf t "chaos: %s (%s)" (describe_faultish "revive" procs links)
      (Faults.describe view.Faults.faults);
    drain t

let step t ev =
  t.clock <- t.clock + 1;
  t.events <- t.events + 1;
  (match ev with
  | Arrive ar -> arrive t ar
  | Depart name -> depart t name
  | Kill { procs; links } -> kill t procs links
  | Revive { procs; links } -> revive t procs links);
  (* queued jobs whose backoff expired get another shot on every tick *)
  drain t;
  sample t (describe_event ev)

(* ------------------------------------------------------------------ *)
(* invariants: lease accounting, checked by the stress soak *)

let invariants t =
  let topo = t.view.Faults.topo in
  let owner = Hashtbl.create 16 in
  let* () =
    Hashtbl.fold
      (fun name l acc ->
        let* () = acc in
        List.fold_left
          (fun acc p ->
            let* () = acc in
            if not (Topology.alive topo p) then
              Error (Printf.sprintf "lease %s holds dead processor %d" name p)
            else begin
              match Hashtbl.find_opt owner p with
              | Some other ->
                Error
                  (Printf.sprintf "processor %d leased to both %s and %s" p other
                     name)
              | None ->
                Hashtbl.replace owner p name;
                Ok ()
            end)
          (Ok ()) l.l_procs)
      t.leases (Ok ())
  in
  let* () =
    Hashtbl.fold
      (fun name l acc ->
        let* () = acc in
        Array.to_list (Mapping.assignment l.l_mapping)
        |> List.fold_left
             (fun acc p ->
               let* () = acc in
               if not (List.mem p l.l_procs) then
                 Error
                   (Printf.sprintf "lease %s places a task on %d outside its region"
                      name p)
               else Ok ())
             (Ok ()))
      t.leases (Ok ())
  in
  let leased = leased_procs t and free = free_procs t in
  let alive = Topology.alive_count topo in
  if List.length leased + List.length free <> alive then
    Error
      (Printf.sprintf "conservation: %d leased + %d free <> %d alive"
         (List.length leased) (List.length free) alive)
  else if List.exists (fun p -> List.mem p leased) free then
    Error "conservation: a processor is both leased and free"
  else if List.length t.queue > t.cfg.cf_queue_bound then
    Error
      (Printf.sprintf "queue %d over bound %d" (List.length t.queue)
         t.cfg.cf_queue_bound)
  else Ok ()

(* ------------------------------------------------------------------ *)
(* wrap-up *)

let finish t =
  (* final drain: let every backoff expire and retries exhaust, then
     refuse whatever still waits — no job ends unaccounted *)
  let guard = ref ((t.cfg.cf_max_retries + 2) * (List.length t.queue + 1)) in
  while t.queue <> [] && !guard > 0 do
    decr guard;
    let next =
      List.fold_left (fun acc p -> min acc p.p_not_before) max_int t.queue
    in
    t.clock <- max (t.clock + 1) next;
    drain t
  done;
  List.iter
    (fun p ->
      refuse t p.p_arrival.ar_name
        (Printf.sprintf "still queued when the trace ended (last error: %s)"
           (if p.p_last_error = "" then "never attempted" else p.p_last_error)))
    t.queue;
  t.queue <- [];
  let running =
    Hashtbl.fold (fun name _ acc -> name :: acc) t.leases [] |> List.sort compare
  in
  {
    rp_events = t.events;
    rp_admitted = t.admitted;
    rp_completed = t.completed;
    rp_cancelled = t.cancelled;
    rp_refused = List.rev t.refused;
    rp_shed = List.rev t.shed;
    rp_repairs = t.repairs;
    rp_remaps = t.remaps;
    rp_evictions = t.evictions;
    rp_repacks = t.repacks;
    rp_repacks_declined = t.repacks_declined;
    rp_migration_total = t.migration_total;
    rp_chaos_applied = t.chaos_applied;
    rp_chaos_refused = t.chaos_refused;
    rp_running = running;
    rp_queued = [];
    rp_samples = List.rev t.samples;
    rp_log = List.rev t.log;
  }

let run ?config ?explain ?(chaos = []) base events =
  let* t = create ?config base in
  t.explain <- explain;
  let chaos = List.stable_sort (fun (a, _) (b, _) -> compare a b) chaos in
  let rec go i chaos events =
    let chaos =
      let due, later = List.partition (fun (at, _) -> at <= i) chaos in
      List.iter (fun (_, ev) -> step t ev) due;
      later
    in
    match events with
    | [] ->
      (* chaos scheduled past the end of the trace still fires *)
      List.iter (fun (_, ev) -> step t ev) chaos
    | ev :: rest ->
      step t ev;
      go (i + 1) chaos rest
  in
  go 0 chaos events;
  Ok (finish t)

(* ------------------------------------------------------------------ *)
(* parsing: chaos specs and trace files *)

let parse_action s =
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "bad chaos action %S (want ACTION=IDS)" s)
  | Some eq ->
    let key = String.sub s 0 eq in
    let v = String.sub s (eq + 1) (String.length s - eq - 1) in
    let* event =
      match key with
      | "kill-procs" -> Ok (fun ids -> Kill { procs = ids; links = [] })
      | "kill-links" -> Ok (fun ids -> Kill { procs = []; links = ids })
      | "revive-procs" -> Ok (fun ids -> Revive { procs = ids; links = [] })
      | "revive-links" -> Ok (fun ids -> Revive { procs = []; links = ids })
      | k ->
        Error
          (Printf.sprintf
             "unknown chaos action %S (want kill-procs, kill-links, revive-procs \
              or revive-links)"
             k)
    in
    Faults.parse_ids v
    |> Result.map_error (Printf.sprintf "chaos action %s: %s" key)
    |> Result.map event

let parse_chaos s =
  String.split_on_char ';' (String.trim s)
  |> List.filter (fun part -> String.trim part <> "")
  |> List.fold_left
       (fun acc part ->
         let* evs = acc in
         let part = String.trim part in
         match String.index_opt part ':' with
         | None -> Error (Printf.sprintf "bad chaos event %S (want AT:ACTION)" part)
         | Some colon ->
           let at_s = String.sub part 0 colon in
           let action = String.sub part (colon + 1) (String.length part - colon - 1) in
           (match int_of_string_opt at_s with
           | None -> Error (Printf.sprintf "bad chaos time %S" at_s)
           | Some at when at < 0 -> Error (Printf.sprintf "negative chaos time %d" at)
           | Some at ->
             let* ev = parse_action action in
             Ok ((at, ev) :: evs)))
       (Ok [])
  |> Result.map List.rev

(* the constraint keys of serve's request-option table, plus [procs=N];
   any other integer key binds a program parameter *)
let parse_arrival name program opts =
  Service.fold_keys
    (fun ar k v ->
      match List.find_opt (fun key -> key.Service.k_name = k) Service.constraint_keys with
      | Some key ->
        let o = { Ctx.default_options with Ctx.constraints = ar.ar_constraints } in
        let constraints (o : Ctx.options) = { ar with ar_constraints = o.constraints } in
        Result.map constraints (key.Service.k_set o v)
      | None when k = "procs" -> (
        match int_of_string_opt v with
        | Some n when n > 0 -> Ok { ar with ar_procs = Some n }
        | _ -> Error (Printf.sprintf "bad procs %S" v))
      | None ->
        let* b = Service.binding k v in
        Ok { ar with ar_bindings = ar.ar_bindings @ [ b ] })
    {
      ar_name = name;
      ar_program = program;
      ar_procs = None;
      ar_bindings = [];
      ar_constraints = Constraints.none;
    }
    opts

(* [procs=IDS] and [links=IDS] in the request-line key grammar *)
let parse_fault_opts verb opts =
  let* procs, links =
    Service.fold_keys
      (fun (procs, links) k v ->
        let ids = Result.map_error (Printf.sprintf "bad %s %s %S: %s" verb k v) in
        match k with
        | "procs" -> Result.map (fun procs -> (procs, links)) (ids (Faults.parse_ids v))
        | "links" -> Result.map (fun links -> (procs, links)) (ids (Faults.parse_ids v))
        | _ -> Error (Printf.sprintf "unknown %s key %S (want procs=IDS or links=IDS)" verb k))
      ([], []) opts
  in
  if procs = [] && links = [] then
    Error (Printf.sprintf "%s needs procs=IDS and/or links=IDS" verb)
  else Ok (procs, links)

let parse_trace_line lineno line =
  let at_line e = Printf.sprintf "line %d: %s" lineno e in
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Ok None
  else
    Result.map_error at_line
      (match Service.tokens line with
      | "arrive" :: name :: program :: opts ->
        Result.map (fun ar -> Some (Arrive ar)) (parse_arrival name program opts)
      | "arrive" :: _ -> Error "arrive wants JOB PROGRAM [KEY=VALUE...]"
      | [ "depart"; name ] -> Ok (Some (Depart name))
      | "depart" :: _ -> Error "depart wants JOB"
      | "kill" :: opts ->
        let* procs, links = parse_fault_opts "kill" opts in
        Ok (Some (Kill { procs; links }))
      | "revive" :: opts ->
        let* procs, links = parse_fault_opts "revive" opts in
        Ok (Some (Revive { procs; links }))
      | verb :: _ ->
        Error
          (Printf.sprintf "unknown trace verb %S (want arrive, depart, kill or revive)"
             verb)
      | [] -> Error "empty line")

let load_trace path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error e -> Error e
  | lines ->
    List.fold_left
      (fun acc (lineno, line) ->
        let* evs = acc in
        let* ev = parse_trace_line lineno line in
        match ev with None -> Ok evs | Some ev -> Ok (ev :: evs))
      (Ok [])
      (List.mapi (fun i line -> (i + 1, line)) lines)
    |> Result.map List.rev

(* ------------------------------------------------------------------ *)
(* synthetic arrival generator *)

let is_synth_trace s = String.starts_with ~prefix:"synth:" s

let parse_synth_trace s =
  let bad = Error (Printf.sprintf "bad synth trace %S (want synth:EVENTS[:SEED])" s) in
  if not (is_synth_trace s) then bad
  else
    match String.split_on_char ':' s |> List.tl |> List.map int_of_string_opt with
    | [ Some events ] when events > 0 -> Ok (events, 1)
    | [ Some events; Some seed ] when events > 0 -> Ok (events, seed)
    | _ -> bad

let synth_trace ~events ~seed topo =
  let rng = Rng.create seed in
  let nprocs = Topology.node_count topo in
  let families = [| "grid"; "ring"; "tree"; "rmat" |] in
  let active = ref [] and counter = ref 0 in
  List.init events (fun _ ->
      if !active <> [] && Rng.float rng 1.0 < 0.45 then begin
        let name = Rng.pick rng (Array.of_list !active) in
        active := List.filter (fun n -> n <> name) !active;
        Depart name
      end
      else begin
        incr counter;
        let name = Printf.sprintf "job%d" !counter in
        let fam = Rng.pick rng families in
        let n = 8 + Rng.int rng 33 in
        let procs = 1 + Rng.int rng (max 1 (nprocs / 4)) in
        active := name :: !active;
        Arrive
          {
            ar_name = name;
            ar_program = Printf.sprintf "synth:%s:%d:%d" fam n (1 + Rng.int rng 999);
            ar_procs = Some procs;
            ar_bindings = [];
            ar_constraints = Constraints.none;
          }
      end)
