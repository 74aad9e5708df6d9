(* Online cluster lifecycle: lease accounting, chaos healing, bounded
   admission, and the combined constraints-plus-faults repair property
   (chaos-driven healing never places on dead processors, never
   violates pins/forbids/requires, and always yields a validated
   routed mapping or a named refusal). *)

open Oregami

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let get = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let topo s = get (Topology.of_string s)

let arrive ?procs ?(constraints = Mapper.Constraints.none) name program =
  Cluster.Arrive
    {
      Cluster.ar_name = name;
      ar_program = program;
      ar_procs = procs;
      ar_bindings = [];
      ar_constraints = constraints;
    }

(* step + invariant check, failing with the cluster's own diagnosis *)
let checked_step t ev =
  Cluster.step t ev;
  match Cluster.invariants t with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "invariants after %S: %s" (Cluster.describe_event ev) e

let test_lifecycle () =
  let t = get (Cluster.create (topo "torus:4x4")) in
  Alcotest.(check int) "all free" 16 (List.length (Cluster.free_procs t));
  checked_step t (arrive ~procs:4 "a" "synth:grid:12:1");
  checked_step t (arrive ~procs:4 "b" "synth:ring:8:1");
  Alcotest.(check int) "8 leased" 8 (List.length (Cluster.leased_procs t));
  Alcotest.(check (float 1e-9)) "utilization" 0.5 (Cluster.utilization t);
  checked_step t (Cluster.Depart "a");
  Alcotest.(check int) "lease reclaimed" 4 (List.length (Cluster.leased_procs t));
  checked_step t (Cluster.Depart "a");
  (* unknown departures are logged, never fatal *)
  checked_step t (Cluster.Depart "nobody");
  let r = Cluster.finish t in
  Alcotest.(check int) "admitted" 2 r.Cluster.rp_admitted;
  Alcotest.(check int) "completed" 1 r.Cluster.rp_completed;
  Alcotest.(check (list string)) "b still running" [ "b" ] r.Cluster.rp_running;
  Alcotest.(check int) "one sample per event" r.Cluster.rp_events
    (List.length r.Cluster.rp_samples)

let test_refusals_are_named () =
  let t = get (Cluster.create (topo "mesh:2x2")) in
  checked_step t (arrive "dup" "synth:grid:8:1");
  checked_step t (arrive "dup" "synth:grid:8:1");
  checked_step t (arrive "nosuch" "no-such-program");
  checked_step t (arrive ~procs:9 "huge" "synth:grid:8:1");
  let r = Cluster.finish t in
  let reason name =
    try List.assoc name r.Cluster.rp_refused
    with Not_found -> Alcotest.failf "%s not refused" name
  in
  Alcotest.(check bool) "duplicate named" true (contains (reason "dup") "duplicate");
  Alcotest.(check bool) "missing program named" true
    (contains (reason "nosuch") "no-such-program");
  Alcotest.(check bool) "oversize named" true (contains (reason "huge") "machine has 4")

let test_queue_and_retry () =
  (* a 2x2 machine: one job takes everything, the next waits its turn *)
  let config = { Cluster.default_config with Cluster.cf_queue_bound = 1 } in
  let t = get (Cluster.create ~config (topo "mesh:2x2")) in
  checked_step t (arrive ~procs:4 "hog" "synth:grid:8:1");
  checked_step t (arrive ~procs:4 "waiter" "synth:ring:8:2");
  Alcotest.(check int) "waiter queued" 1
    (let r = List.length (Cluster.free_procs t) in
     Alcotest.(check int) "no free procs" 0 r;
     1);
  (* the queue is full now: a third arrival is shed by name *)
  checked_step t (arrive ~procs:4 "excess" "synth:tree:7:1");
  checked_step t (Cluster.Depart "hog");
  (* enough ticks for the waiter's backoff to expire *)
  checked_step t (Cluster.Depart "nobody");
  checked_step t (Cluster.Depart "nobody");
  let r = Cluster.finish t in
  Alcotest.(check (list string)) "excess shed" [ "excess" ] r.Cluster.rp_shed;
  Alcotest.(check bool) "waiter eventually ran" true
    (List.mem "waiter" r.Cluster.rp_running);
  Alcotest.(check (list (pair string string))) "nothing refused" []
    r.Cluster.rp_refused

let test_chaos_heals () =
  let t = get (Cluster.create (topo "torus:4x4")) in
  checked_step t (arrive ~procs:4 "job" "synth:grid:16:1");
  let l = List.sort compare (Cluster.leased_procs t) in
  let victim = List.hd l in
  checked_step t (Cluster.Kill { procs = [ victim ]; links = [] });
  (* the lease no longer holds the dead processor, and the job still runs *)
  Alcotest.(check bool) "victim not leased" false
    (List.mem victim (Cluster.leased_procs t));
  checked_step t (Cluster.Revive { procs = [ victim ]; links = [] });
  Alcotest.(check bool) "victim free after revive" true
    (List.mem victim (Cluster.free_procs t));
  let r = Cluster.finish t in
  Alcotest.(check (list string)) "job survived" [ "job" ] r.Cluster.rp_running;
  Alcotest.(check int) "chaos applied twice" 2 r.Cluster.rp_chaos_applied;
  Alcotest.(check bool) "healed by repair or remap" true
    (r.Cluster.rp_repairs + r.Cluster.rp_remaps >= 1)

let test_chaos_refused () =
  let t = get (Cluster.create (topo "ring:4")) in
  (* killing 0 and 2 splits a 4-ring: must be refused by name *)
  checked_step t (Cluster.Kill { procs = [ 0; 2 ]; links = [] });
  Alcotest.(check int) "all four still alive" 4
    (List.length (Cluster.free_procs t));
  let r = Cluster.finish t in
  Alcotest.(check int) "chaos refused" 1 r.Cluster.rp_chaos_refused;
  Alcotest.(check bool) "refusal logged with partitions" true
    (List.exists (fun l -> contains l "chaos refused") r.Cluster.rp_log)

let test_parsers () =
  let chaos = get (Cluster.parse_chaos "3:kill-procs=1,2;10:revive-procs=1") in
  Alcotest.(check int) "two chaos events" 2 (List.length chaos);
  (match chaos with
  | [ (3, Cluster.Kill { procs = [ 1; 2 ]; links = [] });
      (10, Cluster.Revive { procs = [ 1 ]; links = [] }) ] -> ()
  | _ -> Alcotest.fail "chaos parse shape");
  (match Cluster.parse_chaos "oops" with
  | Error e -> Alcotest.(check bool) "bad chaos named" true (contains e "oops")
  | Ok _ -> Alcotest.fail "bad chaos accepted");
  (match Cluster.parse_trace_line 7 "arrive j synth:grid:9:1 procs=2 pin=0:1" with
  | Ok (Some (Cluster.Arrive a)) ->
    Alcotest.(check (option int)) "procs" (Some 2) a.Cluster.ar_procs;
    Alcotest.(check (list (pair int int))) "pin" [ (0, 1) ]
      a.Cluster.ar_constraints.Mapper.Constraints.pins
  | Ok _ | Error _ -> Alcotest.fail "arrive parse");
  (match Cluster.parse_trace_line 7 "launch j" with
  | Error e -> Alcotest.(check bool) "line number" true (contains e "line 7")
  | Ok _ -> Alcotest.fail "bad verb accepted");
  (match Cluster.parse_trace_line 1 "# comment" with
  | Ok None -> ()
  | _ -> Alcotest.fail "comment not skipped");
  (* arrival options follow the request-line grammar of serve *)
  (match Cluster.parse_trace_line 2 "arrive a synth:grid:8:1 procs=4 skip=mem," with
  | Ok (Some (Cluster.Arrive a)) ->
    Alcotest.(check (list string)) "empty skip class dropped" [ "mem" ]
      a.Cluster.ar_constraints.Mapper.Constraints.skip_classes
  | Ok _ | Error _ -> Alcotest.fail "trailing comma in skip= refused");
  let served =
    match Service.parse_request ~id:1 "jacobi torus:4x4 pin=0:1 pin=0:2" with
    | Error e -> e
    | Ok _ -> Alcotest.fail "serve accepted a duplicate pin"
  in
  match Cluster.parse_trace_line 3 "arrive a synth:grid:8:1 pin=0:1 pin=0:2" with
  | Error e -> Alcotest.(check string) "duplicate key, as serve names it" ("line 3: " ^ served) e
  | Ok _ -> Alcotest.fail "duplicate pin accepted"

let test_run_with_chaos_schedule () =
  let machine = topo "torus:4x4" in
  let events = Cluster.synth_trace ~events:40 ~seed:11 machine in
  let chaos = get (Cluster.parse_chaos "8:kill-procs=5;20:revive-procs=5") in
  let r = get (Cluster.run ~chaos machine events) in
  Alcotest.(check int) "trace plus chaos events" 42 r.Cluster.rp_events;
  Alcotest.(check int) "both chaos events landed" 2 r.Cluster.rp_chaos_applied;
  (* determinism: the same seed and schedule reproduce the same log *)
  let r2 = get (Cluster.run ~chaos machine events) in
  Alcotest.(check (list string)) "deterministic log" r.Cluster.rp_log r2.Cluster.rp_log

(* the combined property: a chaos-battered multi-tenant machine under
   placement constraints never violates them — every lease holds a
   validated routed mapping on alive in-region processors respecting
   pins and forbids, and every non-admission is a named refusal *)
let chaos_respects_constraints seed =
  let rng = Prelude.Rng.create seed in
  let machine = topo "torus:4x4" in
  let nprocs = Topology.node_count machine in
  let t =
    match Cluster.create machine with
    | Ok t -> t
    | Error e -> QCheck.Test.fail_reportf "create: %s" e
  in
  (* jobs with real constraints: a pin anchoring task 0 and a
     forbid keeping task 1 off a (different) processor *)
  let specs = Hashtbl.create 8 in
  let mk_arrival i =
    let name = Printf.sprintf "job%d" i in
    let pin_proc = Prelude.Rng.int rng nprocs in
    let forbid_proc = (pin_proc + 1 + Prelude.Rng.int rng (nprocs - 1)) mod nprocs in
    let spec =
      {
        Mapper.Constraints.none with
        Mapper.Constraints.pins = [ (0, pin_proc) ];
        forbids = [ (1, forbid_proc) ];
      }
    in
    Hashtbl.replace specs name spec;
    arrive ~procs:(2 + Prelude.Rng.int rng 4) ~constraints:spec name
      (Printf.sprintf "synth:%s:%d:%d"
         [| "grid"; "ring"; "tree" |].(Prelude.Rng.int rng 3)
         (6 + Prelude.Rng.int rng 15)
         (1 + Prelude.Rng.int rng 99))
  in
  let job = ref 0 and live = ref [] in
  for _ = 1 to 30 do
    let ev =
      match Prelude.Rng.int rng 10 with
      | 0 | 1 ->
        (* chaos: kill or revive a random processor *)
        let p = Prelude.Rng.int rng nprocs in
        if Prelude.Rng.bool rng then Cluster.Kill { procs = [ p ]; links = [] }
        else Cluster.Revive { procs = [ p ]; links = [] }
      | 2 | 3 when !live <> [] ->
        let name = Prelude.Rng.pick rng (Array.of_list !live) in
        live := List.filter (fun n -> n <> name) !live;
        Cluster.Depart name
      | _ ->
        incr job;
        live := Printf.sprintf "job%d" !job :: !live;
        mk_arrival !job
    in
    Cluster.step t ev;
    (match Cluster.invariants t with
    | Ok () -> ()
    | Error e ->
      QCheck.Test.fail_reportf "invariants after %S: %s"
        (Cluster.describe_event ev) e);
    (* every lease honours its own constraint spec on the live view *)
    List.iter
      (fun name ->
        match Cluster.lease_assignment t name with
        | None -> () (* queued, refused or departed: fine *)
        | Some (tg, topo_now, assignment) ->
          let spec = Hashtbl.find specs name in
          Array.iteri
            (fun task p ->
              if not (Topology.alive topo_now p) then
                QCheck.Test.fail_reportf "%s task %d on dead proc %d" name
                  task p;
              List.iter
                (fun (tk, pr) ->
                  if task = tk && p <> pr then
                    QCheck.Test.fail_reportf "%s pin %d:%d violated (on %d)"
                      name tk pr p)
                spec.Mapper.Constraints.pins;
              List.iter
                (fun (tk, pr) ->
                  if task = tk && p = pr then
                    QCheck.Test.fail_reportf "%s forbid %d:%d violated" name
                      tk pr)
                spec.Mapper.Constraints.forbids)
            assignment;
          ignore tg)
      !live
  done;
  (* wrap-up accounts for every job by name *)
  let r = Cluster.finish t in
  let accounted =
    r.Cluster.rp_admitted + r.Cluster.rp_cancelled
    + List.length r.Cluster.rp_refused
    + List.length r.Cluster.rp_shed
  in
  if accounted < !job then
    QCheck.Test.fail_reportf "%d jobs, only %d accounted for" !job accounted;
  true

let prop_chaos_repair_respects_constraints =
  QCheck.Test.make ~name:"chaos healing respects constraints" ~count:25
    QCheck.(int_bound 1_000_000)
    chaos_respects_constraints

(* seeds whose traces once made a defragmenting re-pack hand one
   lease's pinned processor to a lease placed before it *)
let test_repack_keeps_pins () =
  List.iter
    (fun seed ->
      QCheck.Test.check_exn
        (QCheck.Test.make ~name:(Printf.sprintf "seed %d" seed) ~count:1
           (QCheck.make (QCheck.Gen.return seed))
           chaos_respects_constraints))
    [ 461699; 26283 ]

let () =
  Alcotest.run "cluster"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "admit and depart" `Quick test_lifecycle;
          Alcotest.test_case "refusals are named" `Quick test_refusals_are_named;
          Alcotest.test_case "queue, retry, shed" `Quick test_queue_and_retry;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "kill heals, revive frees" `Quick test_chaos_heals;
          Alcotest.test_case "disconnecting kill refused" `Quick test_chaos_refused;
          Alcotest.test_case "run with schedule" `Quick test_run_with_chaos_schedule;
          QCheck_alcotest.to_alcotest prop_chaos_repair_respects_constraints;
          Alcotest.test_case "repack keeps pins reserved" `Quick test_repack_keeps_pins;
        ] );
      ( "parsing",
        [ Alcotest.test_case "chaos and trace grammar" `Quick test_parsers ] );
    ]
