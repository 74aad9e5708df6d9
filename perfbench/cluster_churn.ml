(* cluster-churn: a trace built here and applied event by event with
   Cluster.step on torus:16x16.

   The trace is made of fixed epochs.  Each epoch starts and ends with
   an empty, fully alive machine: small synthetic and built-in programs
   arrive and depart, two processors and a link are killed at a fixed
   event and revived a few events later, and whatever still runs
   departs at the end.  The offered load stays well under capacity, so
   no arrival is refused or shed.  A round replays every epoch once on a
   fresh Cluster, in an order drawn from the seed; since epochs leave
   no state behind, every round must report the same migration and
   lease quality, which is checked.

   After every event the leases and the free pool must partition the
   alive processors (the alive set comes from this trace's own kill and
   revive record), and every lease's tasks must sit on alive leased
   processors no other lease uses.  At the end of each round every
   arrival must be accounted for exactly once. *)

open Oregami
open Common
module Rng = Prelude.Rng

let machine = "torus:16x16"
let epochs = 8
let events_per_epoch = 40
let capacity = 150  (* processors requested by concurrent leases, of 256 *)

let builtins =
  [| "nbody"; "jacobi"; "fft"; "voting"; "divconq"; "matmul"; "spawned"; "sor"; "annealing"; "topsort" |]

let families = [| "grid"; "ring"; "tree"; "rmat" |]

let epoch topo e =
  let rng = Rng.create (1000 + e) in
  let nprocs = Topology.node_count topo in
  let live = ref [] and used = ref 0 and next = ref 0 in
  (* the allocator hands out low processor ids first, so kills aimed
     there land on running leases and force heals *)
  let killed = Rng.sample rng (nprocs / 4) 2 in
  let dead_link = [ Rng.int rng (Topology.link_count topo) ] in
  let kill_at = 15 + Rng.int rng 10 in
  let revive_at = kill_at + 5 + Rng.int rng 10 in
  let depart () =
    let name, procs = Rng.pick rng (Array.of_list !live) in
    live := List.filter (fun (n, _) -> n <> name) !live;
    used := !used - procs;
    Cluster.Depart name
  in
  let events =
    List.init events_per_epoch (fun i ->
        if i = kill_at then Cluster.Kill { procs = killed; links = dead_link }
        else if i = revive_at then Cluster.Revive { procs = killed; links = dead_link }
        else begin
          let procs = 2 + Rng.int rng 11 in
          if !live <> [] && (Rng.float rng 1.0 < 0.4 || !used + procs > capacity) then depart ()
          else begin
            incr next;
            let name = Printf.sprintf "e%d-job%d" e !next in
            let program =
              if Rng.bool rng then Rng.pick rng builtins
              else
                Printf.sprintf "synth:%s:%d:%d" (Rng.pick rng families) (8 + Rng.int rng 33)
                  (1 + Rng.int rng 99)
            in
            live := (name, procs) :: !live;
            used := !used + procs;
            Cluster.Arrive
              {
                Cluster.ar_name = name;
                ar_program = program;
                ar_procs = Some procs;
                ar_bindings = [];
                ar_constraints = Mapper.Constraints.none;
              }
          end
        end)
  in
  events @ List.map (fun (name, _) -> Cluster.Depart name) (List.rev !live)

let kind = function
  | Cluster.Arrive _ -> "arrive"
  | Cluster.Depart _ -> "depart"
  | Cluster.Kill _ -> "kill"
  | Cluster.Revive _ -> "revive"

(* a lease's mapping rebuilt from its assignment the way the cluster
   builds it: dense clusters in processor first-use order, MM-Route *)
let lease_mapping tg topo assignment =
  let ids = Hashtbl.create 16 in
  let cluster_of =
    Array.map
      (fun p ->
        match Hashtbl.find_opt ids p with
        | Some c -> c
        | None ->
          let c = Hashtbl.length ids in
          Hashtbl.add ids p c;
          c)
      assignment
  in
  let proc_of_cluster = Array.make (Hashtbl.length ids) 0 in
  Hashtbl.iter (fun p c -> proc_of_cluster.(c) <- p) ids;
  let routings, _ =
    Mapper.Route.mm_route ~cap:Cluster.default_config.Cluster.cf_route_cap tg topo
      ~proc_of_task:assignment
  in
  { Mapping.tg; topo; cluster_of; proc_of_cluster; routings; strategy = "lease" }

(* one round's machine and the benchmark's own record of it *)
type round = {
  cluster : Cluster.t;
  alive : bool array;  (* from this trace's kills and revives *)
  running : (string, bool) Hashtbl.t;  (* arrived, not departed -> priced yet *)
  mutable sent : int;
  mutable chaos : int;
  mutable q : quality;
}

let run (args : args) =
  let topo = build_topology machine in
  let trace = List.init epochs (epoch topo) in
  let setup_s = Clock.now () -. process_start in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let failed = ref 0 and priced = ref [] in
  (* BFS distances per machine view, for the lease route checks *)
  let dists = ref [] in
  let dist_of view =
    match List.assq_opt view !dists with
    | Some d -> d
    | None ->
      let d = Checks.bfs_distances view in
      dists := (view, d) :: (if List.length !dists > 4 then [] else !dists);
      d
  in
  (* a lease seen for the first time is a fresh admission: check and
     price its mapping *)
  let price st name (tg, view, assignment) =
    Hashtbl.replace st.running name true;
    let m = lease_mapping tg view assignment in
    match assess ~alive:(fun p -> st.alive.(p)) ~dist:(dist_of view) ~fault_pricing:false m with
    | Error e -> problem "lease %s: %s" name e
    | Ok q -> st.q <- add_quality st.q q
  in
  let check st ev =
    (match ev with
    | Cluster.Arrive a ->
      st.sent <- st.sent + 1;
      Hashtbl.replace st.running a.Cluster.ar_name false
    | Cluster.Kill { procs; _ } ->
      st.chaos <- st.chaos + 1;
      List.iter (fun p -> st.alive.(p) <- false) procs
    | Cluster.Revive { procs; _ } ->
      st.chaos <- st.chaos + 1;
      List.iter (fun p -> st.alive.(p) <- true) procs
    | Cluster.Depart name ->
      if Cluster.lease_assignment st.cluster name <> None then problem "%s still leased after departing" name;
      Hashtbl.remove st.running name);
    let leases =
      Hashtbl.fold
        (fun name was_priced acc ->
          match Cluster.lease_assignment st.cluster name with
          | None -> acc
          | Some lease -> (name, was_priced, lease) :: acc)
        st.running []
    in
    List.iter (fun (name, was_priced, lease) -> if not was_priced then price st name lease) leases;
    let owned = List.map (fun (name, _, (_, _, assignment)) -> (name, assignment)) leases in
    match
      Checks.leases ~alive:st.alive ~free:(Cluster.free_procs st.cluster)
        ~leased:(Cluster.leased_procs st.cluster) owned
    with
    | Ok () -> ()
    | Error e -> problem "after %s: %s" (Cluster.describe_event ev) e
  in
  let current = ref None in
  let state () = match !current with Some st -> st | None -> failwith "no round in progress" in
  let fresh round =
    (* the last round's machine, log and samples are garbage now:
       collect them so every round starts from the same heap *)
    current := None;
    Gc.full_major ();
    let cluster = match Cluster.create topo with Ok c -> c | Error e -> failwith ("Cluster.create: " ^ e) in
    current :=
      Some
        {
          cluster;
          alive = Array.make (Topology.node_count topo) true;
          running = Hashtbl.create 32;
          sent = 0;
          chaos = 0;
          q = no_quality;
        };
    List.concat (shuffled ~seed:args.seed ~round trace)
  in
  (* end of round: every arrival and chaos event accounted for once.
     The resident set is read after the first round: the heap of a
     long-lived process creeps up a little with every further round, so
     a later reading would depend on how many rounds the run fitted. *)
  let peak_rss = ref 0.0 in
  let close round =
    if round = 0 then peak_rss := peak_rss_mb 0;
    let st = state () in
    let r = Cluster.finish st.cluster in
    let lost = List.length r.Cluster.rp_refused + List.length r.Cluster.rp_shed in
    failed := !failed + lost + r.Cluster.rp_chaos_refused;
    List.iter (fun (name, why) -> log "refused %s: %s" name why) r.Cluster.rp_refused;
    let accounted = r.Cluster.rp_completed + r.Cluster.rp_cancelled + lost + List.length r.Cluster.rp_running in
    if accounted <> st.sent then problem "round %d: %d arrivals sent, %d accounted for" round st.sent accounted;
    let chaos = r.Cluster.rp_chaos_applied + r.Cluster.rp_chaos_refused in
    if chaos <> st.chaos then problem "round %d: %d chaos events sent, %d accounted for" round st.chaos chaos;
    (* keep the counters, not the report: its log and samples would
       inflate the resident set round after round *)
    let counts =
      Cluster.
        [
          ("cluster.repairs", r.rp_repairs); ("cluster.remaps", r.rp_remaps);
          ("cluster.evictions", r.rp_evictions); ("cluster.repacks", r.rp_repacks);
          ("cluster.repacks_declined", r.rp_repacks_declined);
        ]
    in
    priced := ({ st.q with migration = r.Cluster.rp_migration_total }, counts) :: !priced
  in
  let timing =
    run_rounds ~seconds:args.seconds ~ops_of_round:fresh ~after_round:close
      ~counted:(function Cluster.Arrive _ | Cluster.Kill _ -> true | Cluster.Depart _ | Cluster.Revive _ -> false)
      (fun ~round:_ ~rid ev ->
        let st = state () in
        Spans.span ~rid ("cluster." ^ kind ev) (fun () -> Cluster.step st.cluster ev);
        fun () -> check st ev)
  in
  let ops = rounds timing * List.length (List.concat trace) in
  let priced = List.rev !priced in
  let q, counts = List.hd priced in
  List.iteri
    (fun i (qi, ci) -> if qi <> q || ci <> counts then problem "round %d priced differently from round 0" i)
    priced;
  List.iter (fun p -> log "check failed: %s" p) (List.rev !problems);
  let n = float_of_int (rounds timing) in
  let f = float_of_int in
  let per_round name = Spans.total_ms name /. n in
  {
    correct = !problems = [];
    attempted = ops;
    failed = !failed;
    measured_s = measured timing;
    e2e =
      [
        ("setup_s", setup_s);
        ("ops_per_s", ops_per_s ~ops timing);
        ("latency_p50_ms", percentile (latencies timing) 50.0);
        ("latency_p99_ms", percentile (latencies timing) 99.0);
        ("peak_rss_mb", !peak_rss);
      ]
      @ quality_metrics q;
    layers =
      [
        ("cluster.arrive_ms", per_round "cluster.arrive");
        ("cluster.depart_ms", per_round "cluster.depart");
        ("cluster.kill_ms", per_round "cluster.kill");
        ("cluster.revive_ms", per_round "cluster.revive");
        ("netsim.run_ms", per_round "netsim.run");
      ]
      @ List.map (fun (name, v) -> (name, f v)) counts;
  }
