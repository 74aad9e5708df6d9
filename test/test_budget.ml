(* Budgets, crash isolation, and the anytime contract.

   A strategy that raises mid-run must never abort the pipeline: it is
   recorded as a named Crashed attempt, the circuit breaker benches it
   after enough consecutive crashes, and the competition falls back to
   a cheap baseline so a valid mapping is still produced.  A budgeted
   run (fuel or deadline) always returns a valid mapping tagged with
   its degradation level, in bounded work. *)

open Oregami
module Budget = Mapper.Budget
module Isolate = Mapper.Isolate

let topo s = Topology.make (Result.get_ok (Topology.parse s))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let compiled name =
  let spec =
    List.find (fun s -> s.Workloads.w_name = name) (Workloads.all ())
  in
  Workloads.compile_exn spec

(* a deliberately broken strategy: passes the availability gate, then
   raises from its producer *)
let boom =
  {
    Strategy.name = "boom";
    tier = Strategy.Compete;
    default_on = false;
    doc = "always raises (test only)";
    available = (fun _ -> Ok ());
    produce = (fun _ -> failwith "kaboom");
  }

let mwm =
  match Strategy.find "mwm" with
  | Some s -> s
  | None -> Alcotest.fail "mwm not registered"

let compete ctx selection =
  Pipeline.compete ~score:Metrics.completion_time ctx selection

let check_valid m =
  match Mapping.validate m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid mapping: %s" e

(* --- Budget ------------------------------------------------------- *)

let test_budget_fuel () =
  let b = Budget.create ~fuel:10 () in
  Alcotest.(check bool) "within fuel" true (Budget.poll b ~cost:5);
  Alcotest.(check bool) "still within" true (Budget.poll b ~cost:5);
  Alcotest.(check bool) "over" false (Budget.poll b ~cost:1);
  Alcotest.(check bool) "sticky" false (Budget.poll b ~cost:0);
  Alcotest.(check bool) "exhausted" true (Budget.exhausted b);
  Alcotest.(check (option string)) "reason" (Some "fuel") (Budget.reason b)

let test_budget_deadline () =
  let b = Budget.create ~deadline_ms:0.0 () in
  Alcotest.(check bool) "expired at once" false (Budget.poll b ~cost:1);
  Alcotest.(check (option string)) "reason" (Some "deadline") (Budget.reason b)

let test_budget_unlimited () =
  let b = Budget.unlimited () in
  for _ = 1 to 10_000 do
    Alcotest.(check bool) "never trips" true (Budget.poll b ~cost:1000)
  done;
  Alcotest.(check bool) "not exhausted" false (Budget.exhausted b);
  Alcotest.(check int) "fuel still metered" 10_000_000 (Budget.fuel_used b)

let test_budget_notes () =
  let b = Budget.create ~fuel:0 () in
  ignore (Budget.poll b ~cost:1);
  Budget.note b "refine";
  Budget.note b "kl";
  Budget.note b "refine";
  Alcotest.(check (list string))
    "deduped, in order" [ "refine"; "kl" ] (Budget.truncations b)

(* --- Isolate ------------------------------------------------------ *)

let test_isolate_protect () =
  (match Isolate.protect (fun () -> 42) with
  | Ok v -> Alcotest.(check int) "value" 42 v
  | Error e -> Alcotest.failf "unexpected error: %s" e);
  match Isolate.protect (fun () -> failwith "pop") with
  | Ok _ -> Alcotest.fail "should have caught"
  | Error e ->
    Alcotest.(check bool) "names the exception" true
      (contains ~sub:"pop" e)

let test_isolate_breaker () =
  let br = Isolate.breaker ~threshold:2 () in
  Alcotest.(check bool) "admits fresh" true
    (Result.is_ok (Isolate.admit br "s"));
  Isolate.fail br "s";
  Alcotest.(check bool) "one strike" true (Result.is_ok (Isolate.admit br "s"));
  Isolate.fail br "s";
  Alcotest.(check bool) "open after threshold" true
    (Result.is_error (Isolate.admit br "s"));
  Alcotest.(check (list string)) "tripped" [ "s" ] (Isolate.tripped br);
  Isolate.succeed br "s";
  Alcotest.(check bool) "reset on success" true
    (Result.is_ok (Isolate.admit br "s"))

(* --- crash isolation in the pipeline ------------------------------ *)

let test_crash_is_isolated () =
  let ctx = Ctx.of_compiled (compiled "nbody") (topo "ring:8") in
  match compete ctx [ boom; mwm ] with
  | Error e -> Alcotest.failf "pipeline aborted: %s" e
  | Ok (m, deg) ->
    check_valid m;
    (* the crash forces the anytime fallback gate open, but a real
       candidate won, so the run still reports Fallback only if no
       candidate landed — here mwm landed *)
    Alcotest.(check bool) "not a fallback" true (deg <> Stats.Fallback);
    let crashed =
      List.filter_map
        (fun (a : Stats.attempt) ->
          match a.Stats.at_outcome with
          | Stats.Crashed e -> Some (a.Stats.at_strategy, e)
          | _ -> None)
        (Stats.attempts ctx.Ctx.stats)
    in
    (match crashed with
    | [ (name, e) ] ->
      Alcotest.(check string) "named failure" "boom" name;
      Alcotest.(check bool) "carries the exception" true
        (contains ~sub:"kaboom" e)
    | l -> Alcotest.failf "expected one crash, got %d" (List.length l));
    (* the named failure also shows up in the rejection report *)
    Alcotest.(check bool) "in rejections" true
      (List.exists
         (fun (s, r) -> s = "boom" && contains ~sub:"crashed" r)
         (Stats.rejections ctx.Ctx.stats))

let test_crash_alone_falls_back () =
  let ctx = Ctx.of_compiled (compiled "nbody") (topo "ring:8") in
  match compete ctx [ boom ] with
  | Error e -> Alcotest.failf "expected a fallback mapping, got: %s" e
  | Ok (m, deg) ->
    check_valid m;
    Alcotest.(check bool) "fallback" true (deg = Stats.Fallback);
    Alcotest.(check string) "baseline label" "fallback:block" m.Mapping.strategy

let test_breaker_benches_crasher () =
  let breaker = Isolate.breaker ~threshold:3 () in
  let c = compiled "nbody" in
  let t = topo "ring:8" in
  let outcome_of_boom ctx =
    match
      List.find_opt
        (fun (a : Stats.attempt) -> a.Stats.at_strategy = "boom")
        (Stats.attempts ctx.Ctx.stats)
    with
    | Some a -> a.Stats.at_outcome
    | None -> Alcotest.fail "boom never attempted"
  in
  (* three crashing runs trip the breaker... *)
  for _ = 1 to 3 do
    let ctx = Ctx.of_compiled ~breaker c t in
    (match compete ctx [ boom; mwm ] with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "run failed: %s" e);
    match outcome_of_boom ctx with
    | Stats.Crashed _ -> ()
    | _ -> Alcotest.fail "expected a crash outcome"
  done;
  (* ...after which boom is skipped with a named reason *)
  let ctx = Ctx.of_compiled ~breaker c t in
  (match compete ctx [ boom; mwm ] with
  | Ok (m, _) -> check_valid m
  | Error e -> Alcotest.failf "run failed: %s" e);
  match outcome_of_boom ctx with
  | Stats.Skipped reason ->
    Alcotest.(check bool) "circuit open" true
      (contains ~sub:"circuit open" reason)
  | _ -> Alcotest.fail "expected boom to be skipped"

(* --- anytime truncation ------------------------------------------- *)

let budgeted_options ?fuel ?deadline_ms () =
  { Driver.default_options with Driver.fuel; Driver.deadline_ms }

let test_deadline_zero_still_maps () =
  List.iter
    (fun (w, t) ->
      let options = budgeted_options ~deadline_ms:0.0 () in
      let ctx = Ctx.of_compiled ~options (compiled w) (topo t) in
      match Driver.run ctx with
      | Error e -> Alcotest.failf "%s on %s: %s" w t e
      | Ok (m, deg) ->
        check_valid m;
        Alcotest.(check bool)
          (Printf.sprintf "%s on %s degraded" w t)
          true (deg <> Stats.Full))
    [ ("nbody", "ring:8"); ("matmul", "mesh:4x4"); ("fft", "hypercube:3") ]

let test_tiny_fuel_still_maps () =
  let options = budgeted_options ~fuel:1 () in
  let ctx = Ctx.of_compiled ~options (compiled "nbody") (topo "torus:4x4") in
  match Driver.run ctx with
  | Error e -> Alcotest.failf "tiny fuel: %s" e
  | Ok (m, deg) ->
    check_valid m;
    Alcotest.(check bool) "degraded" true (deg <> Stats.Full);
    Alcotest.(check bool) "budget exhausted" true
      (Budget.exhausted ctx.Ctx.budget)

let test_truncation_sites_named () =
  let options = budgeted_options ~fuel:50 () in
  let ctx = Ctx.of_compiled ~options (compiled "nbody") (topo "ring:8") in
  match Driver.run ctx with
  | Error e -> Alcotest.failf "budgeted run: %s" e
  | Ok (m, deg) -> (
    check_valid m;
    match deg with
    | Stats.Truncated sites ->
      Alcotest.(check bool) "at least one site" true (sites <> [])
    | Stats.Fallback -> () (* nothing landed before the fuel died: fine *)
    | Stats.Full -> Alcotest.fail "50 fuel units cannot be a full run")

let test_unlimited_is_full () =
  let ctx = Ctx.of_compiled (compiled "nbody") (topo "ring:8") in
  match Driver.run ctx with
  | Error e -> Alcotest.failf "unbudgeted run: %s" e
  | Ok (m, deg) ->
    check_valid m;
    Alcotest.(check bool) "full" true (deg = Stats.Full);
    Alcotest.(check string) "golden strategy unchanged" "mwm+nn"
      m.Mapping.strategy

(* --- the batch service -------------------------------------------- *)

let parse_ok line =
  match Service.parse_request ~id:1 line with
  | Ok (Some r) -> r
  | Ok None -> Alcotest.failf "line %S skipped" line
  | Error e -> Alcotest.failf "line %S: %s" line e

let test_service_parse () =
  let r = parse_ok "nbody torus:4x4 fuel=100 retries=1 n=12 seed=7" in
  Alcotest.(check string) "program" "nbody" r.Service.rq_program;
  Alcotest.(check string) "topology" "torus:4x4" r.Service.rq_topology;
  Alcotest.(check (option int)) "fuel" (Some 100) r.Service.rq_options.Ctx.fuel;
  Alcotest.(check int) "retries" 1 r.Service.rq_retries;
  Alcotest.(check int) "seed" 7 r.Service.rq_options.Ctx.seed;
  Alcotest.(check bool) "fallback implied" true r.Service.rq_options.Ctx.fallback;
  Alcotest.(check (list (pair string int))) "bindings" [ ("n", 12) ]
    r.Service.rq_bindings;
  (match Service.parse_request ~id:1 "   " with
  | Ok None -> ()
  | _ -> Alcotest.fail "blank line should be skipped");
  (match Service.parse_request ~id:1 "# comment" with
  | Ok None -> ()
  | _ -> Alcotest.fail "comment should be skipped");
  (match Service.parse_request ~id:1 "lonely" with
  | Error _ -> ()
  | _ -> Alcotest.fail "single token should be rejected");
  match Service.parse_request ~id:1 "nbody ring:4 fuel=much" with
  | Error _ -> ()
  | _ -> Alcotest.fail "bad fuel value should be rejected"

let test_service_duplicate_key_rejected () =
  (match Service.parse_request ~id:1 "nbody ring:4 fuel=10 fuel=20" with
  | Error e ->
    Alcotest.(check bool) "names the duplicate" true
      (String.length e >= 9 && String.sub e 0 9 = "duplicate")
  | Ok _ -> Alcotest.fail "duplicate option key should be rejected");
  (* duplicate parameter bindings are the same typo *)
  (match Service.parse_request ~id:1 "nbody ring:4 n=12 n=13" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate binding should be rejected");
  (* distinct keys still combine *)
  let r = parse_ok "nbody ring:4 fuel=10 deadline-ms=5 n=12" in
  Alcotest.(check (option int)) "fuel kept" (Some 10)
    r.Service.rq_options.Ctx.fuel

let test_service_program_size_cap () =
  let path = Filename.temp_file "oregami-big" ".larcs" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (String.make (Service.max_program_bytes + 1) 'x');
      close_out oc;
      match Service.load_program path with
      | Error e ->
        let contains hay needle =
          let n = String.length needle and h = String.length hay in
          let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "names the cap" true (contains e "too large")
      | Ok _ -> Alcotest.fail "oversized program should be refused")

(* retries run back to back: a request that runs out of fuel on every
   attempt (fuel is per attempt) runs the whole ladder and answers the
   same way each time, wall-clock aside *)
let test_service_retries_back_to_back () =
  let req = parse_ok "nbody ring:8 fuel=10 retries=2" in
  let a = Service.run_request req in
  let b = Service.run_request req in
  let mask r = { r with Service.r_elapsed_ms = 0.0 } in
  Alcotest.(check int) "all three attempts ran" 3 a.Service.r_attempts;
  Alcotest.(check bool) "same outcome, wall-clock aside" true (mask a = mask b)

(* the deadline is one per request: once attempt 1 has spent it, no
   retry starts *)
let test_service_deadline_spans_retries () =
  let r = Service.run_request (parse_ok "nbody ring:8 deadline-ms=0 retries=2") in
  Alcotest.(check bool) "ok" true r.Service.r_ok;
  Alcotest.(check int) "one attempt" 1 r.Service.r_attempts

let test_service_poisoned_request () =
  let r = Service.run_request (parse_ok "./no-such-file.larcs ring:4") in
  Alcotest.(check bool) "failed" false r.Service.r_ok;
  Alcotest.(check bool) "says why" true (r.Service.r_error <> "")

let test_service_budgeted_request () =
  let r = Service.run_request (parse_ok "nbody ring:8 deadline-ms=0") in
  Alcotest.(check bool) "ok" true r.Service.r_ok;
  Alcotest.(check bool) "degraded" true
    (r.Service.r_degradation <> Some Stats.Full);
  Alcotest.(check bool) "ran the retry schedule" true
    (r.Service.r_attempts >= 1 && r.Service.r_attempts <= 3)

let test_service_full_request () =
  let r = Service.run_request (parse_ok "voting hypercube:2") in
  Alcotest.(check bool) "ok" true r.Service.r_ok;
  Alcotest.(check (option int)) "one attempt suffices" (Some 1)
    (Some r.Service.r_attempts);
  Alcotest.(check bool) "full" true (r.Service.r_degradation = Some Stats.Full)

(* --- the shared artifact caches ----------------------------------- *)

(* elapsed wall-clock aside, a cached run must report exactly what a
   cold run reports *)
let masked r = { r with Service.r_elapsed_ms = 0.0 }

let test_service_cached_matches_uncached () =
  let caches = Service.caches () in
  List.iter
    (fun line ->
      let req = parse_ok line in
      let cold = Service.run_request req in
      let warm = Service.run_request ~caches req in
      let again = Service.run_request ~caches req in
      Alcotest.(check bool)
        (Printf.sprintf "%S: cached = uncached" line)
        true
        (masked warm = masked cold);
      Alcotest.(check bool)
        (Printf.sprintf "%S: cache hit = cache miss" line)
        true
        (masked again = masked cold))
    [
      "voting hypercube:2"; "nbody ring:8 seed=5"; "nbody torus:4x4 fuel=100";
      "voting hypercube:2 deadline-ms=0";
    ]

let test_service_caches_errors_too () =
  let caches = Service.caches () in
  let req = parse_ok "./no-such-file.larcs ring:4" in
  let r1 = Service.run_request ~caches req in
  let r2 = Service.run_request ~caches req in
  Alcotest.(check bool) "failed" false r1.Service.r_ok;
  Alcotest.(check string) "same error from the cache" r1.Service.r_error
    r2.Service.r_error;
  (* bad topology specs are cached under their own key as well *)
  let r3 = Service.run_request ~caches (parse_ok "voting notatopo:9") in
  Alcotest.(check bool) "bad topology failed" false r3.Service.r_ok

let test_service_cache_shares_topology () =
  let caches = Service.caches () in
  (* two different programs on one topology: the hop matrix must be
     built once, by the topology-cache build, and then shared *)
  ignore (Service.run_request ~caches (parse_ok "voting hypercube:3"));
  ignore (Service.run_request ~caches (parse_ok "nbody hypercube:3 seed=3"));
  match Oregami_prelude.Memo.find_opt caches.Service.c_topologies "hypercube:3" with
  | None | Some (Error _) -> Alcotest.fail "topology not cached"
  | Some (Ok t) ->
    Alcotest.(check int) "hop matrix built exactly once" 1
      (Oregami_topology.Distcache.hop_builds t)

(* distinct bindings must land under distinct program-cache keys *)
let test_service_cache_program_keys () =
  let caches = Service.caches () in
  ignore (Service.run_request ~caches (parse_ok "nbody ring:8 n=15"));
  ignore (Service.run_request ~caches (parse_ok "nbody ring:8 n=31"));
  ignore (Service.run_request ~caches (parse_ok "nbody ring:8 seed=9 n=15"));
  Alcotest.(check int) "two compiled programs" 2
    (Oregami_prelude.Memo.length caches.Service.c_programs);
  Alcotest.(check int) "one topology" 1
    (Oregami_prelude.Memo.length caches.Service.c_topologies)

let () =
  Alcotest.run "budget"
    [
      ( "budget",
        [
          Alcotest.test_case "fuel" `Quick test_budget_fuel;
          Alcotest.test_case "deadline" `Quick test_budget_deadline;
          Alcotest.test_case "unlimited" `Quick test_budget_unlimited;
          Alcotest.test_case "notes" `Quick test_budget_notes;
        ] );
      ( "isolate",
        [
          Alcotest.test_case "protect" `Quick test_isolate_protect;
          Alcotest.test_case "breaker" `Quick test_isolate_breaker;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "crash isolated" `Quick test_crash_is_isolated;
          Alcotest.test_case "crash-only falls back" `Quick
            test_crash_alone_falls_back;
          Alcotest.test_case "breaker benches crasher" `Quick
            test_breaker_benches_crasher;
        ] );
      ( "anytime",
        [
          Alcotest.test_case "deadline 0" `Quick test_deadline_zero_still_maps;
          Alcotest.test_case "tiny fuel" `Quick test_tiny_fuel_still_maps;
          Alcotest.test_case "truncation sites" `Quick
            test_truncation_sites_named;
          Alcotest.test_case "unlimited is full" `Quick test_unlimited_is_full;
        ] );
      ( "service",
        [
          Alcotest.test_case "parse" `Quick test_service_parse;
          Alcotest.test_case "duplicate key rejected" `Quick
            test_service_duplicate_key_rejected;
          Alcotest.test_case "program size cap" `Quick
            test_service_program_size_cap;
          Alcotest.test_case "retries run back to back" `Quick
            test_service_retries_back_to_back;
          Alcotest.test_case "deadline spans retries" `Quick
            test_service_deadline_spans_retries;
          Alcotest.test_case "poisoned request" `Quick
            test_service_poisoned_request;
          Alcotest.test_case "budgeted request" `Quick
            test_service_budgeted_request;
          Alcotest.test_case "full request" `Quick test_service_full_request;
          Alcotest.test_case "cached matches uncached" `Quick
            test_service_cached_matches_uncached;
          Alcotest.test_case "errors cached" `Quick
            test_service_caches_errors_too;
          Alcotest.test_case "topology shared" `Quick
            test_service_cache_shares_topology;
          Alcotest.test_case "program keys" `Quick
            test_service_cache_program_keys;
        ] );
    ]
