(* Daemon lifecycle tests: an in-process daemon on a temp Unix socket,
   driven through real file descriptors — admission, shedding, quotas,
   client disconnects, the stats verb, and graceful shutdown. *)

module Daemon = Oregami.Daemon
module Service = Oregami.Service

(* --- harness ------------------------------------------------------ *)

(* the daemon blocks in [run] until shut down, so it lives on its own
   systhread; [ready] hands the controller back before the first
   accept, which is the only sound moment to dial in *)
let with_daemon ?(tweak = fun c -> c) f =
  let path = Filename.temp_file "oregd" ".sock" in
  let cfg = tweak (Daemon.default_config (Daemon.Unix_socket path)) in
  let lock = Mutex.create () and arrived = Condition.create () in
  let ctl = ref None in
  let code = ref (-1) in
  let th =
    Thread.create
      (fun () ->
        code :=
          Daemon.run ~handle_signals:false
            ~ready:(fun c ->
              Mutex.lock lock;
              ctl := Some c;
              Condition.broadcast arrived;
              Mutex.unlock lock)
            cfg)
      ()
  in
  Mutex.lock lock;
  while !ctl = None do
    Condition.wait arrived lock
  done;
  Mutex.unlock lock;
  Fun.protect
    ~finally:(fun () ->
      Daemon.shutdown (Option.get !ctl);
      Thread.join th;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f path);
  Alcotest.(check int) "graceful drain returns 0" 0 !code

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let dial path =
  let fd = Daemon.connect (Daemon.Unix_socket path) in
  {
    fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr (Unix.dup fd);
  }

let say c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let hear c = input_line c.ic

let hangup c =
  close_out_noerr c.oc;
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let fields line = String.split_on_char '\t' line

(* --- tests -------------------------------------------------------- *)

let test_lifecycle () =
  with_daemon (fun path ->
      let c = dial path in
      say c "ping";
      Alcotest.(check string) "pong" "pong" (hear c);
      say c "voting hypercube:2";
      (match fields (hear c) with
      | id :: program :: topology :: status :: strategy :: _ ->
        Alcotest.(check string) "id" "1" id;
        Alcotest.(check string) "program" "voting" program;
        Alcotest.(check string) "topology" "hypercube:2" topology;
        Alcotest.(check string) "status" "ok" status;
        Alcotest.(check string) "strategy" "group-theoretic" strategy
      | _ -> Alcotest.fail "short answer line");
      say c "quit";
      (match hear c with
      | line -> Alcotest.failf "expected close after quit, got %S" line
      | exception End_of_file -> ());
      hangup c)

let test_answers_match_batch_service () =
  (* the daemon must answer exactly what the batch service answers,
     wall-clock column aside *)
  with_daemon (fun path ->
      let c = dial path in
      let lines =
        [ "voting hypercube:2"; "nbody ring:8 seed=5"; "nbody torus:4x4 fuel=100" ]
      in
      let answers =
        List.mapi
          (fun i line ->
            say c line;
            (i + 1, hear c))
          lines
      in
      hangup c;
      List.iteri
        (fun i line ->
          let req =
            match Service.parse_request ~id:(i + 1) line with
            | Ok (Some r) -> r
            | _ -> Alcotest.failf "unparseable %S" line
          in
          let want = Service.render Service.Tsv (Service.run_request req) in
          let got = List.assoc (i + 1) answers in
          let mask l =
            match fields l with
            | a :: b :: c' :: d :: e :: f :: g :: _elapsed :: rest ->
              String.concat "\t" (a :: b :: c' :: d :: e :: f :: g :: rest)
            | _ -> l
          in
          Alcotest.(check string)
            (Printf.sprintf "request %d identical" (i + 1))
            (mask want) (mask got))
        lines)

let test_queue_full_shedding () =
  with_daemon
    ~tweak:(fun c ->
      { c with Daemon.d_jobs = 1; d_queue_bound = 1; d_max_inflight = 100 })
    (fun path ->
      let c = dial path in
      say c "sleep 400";
      (* wait until the lone worker holds job 1 (stats answers come
         straight from the reader), so the queue state is deterministic
         for the rest of the burst; pickup is near-instant, the sleep
         is long enough that job 1 cannot finish during the poll *)
      let rec settle n =
        if n = 0 then Alcotest.fail "worker never picked the job up";
        say c "stats";
        if not (contains (hear c) "(inflight 1)") then begin
          Unix.sleepf 0.005;
          settle (n - 1)
        end
      in
      settle 40;
      say c "sleep 400";
      (* worker busy + queue slot taken: everything further is shed *)
      let shed_answers =
        List.init 3 (fun _ ->
            say c "sleep 400";
            hear c)
      in
      List.iter
        (fun line ->
          Alcotest.(check bool)
            (Printf.sprintf "named shed: %s" line)
            true
            (contains line "overload: admission queue full (bound 1)"))
        shed_answers;
      (* the two accepted sleeps still complete and answer ok *)
      let a = hear c and b = hear c in
      List.iter
        (fun line ->
          match fields line with
          | _ :: "sleep" :: _ :: status :: _ ->
            Alcotest.(check string) "accepted sleep ok" "ok" status
          | _ -> Alcotest.failf "unexpected answer %S" line)
        [ a; b ];
      hangup c)

let test_inflight_cap_shedding () =
  with_daemon
    ~tweak:(fun c ->
      { c with Daemon.d_jobs = 1; d_queue_bound = 100; d_max_inflight = 1 })
    (fun path ->
      let c = dial path in
      (* the reader handles lines sequentially: when line 2 is admitted
         request 1 is still unanswered, so the cap trips without any
         timing dependence *)
      say c "sleep 100";
      say c "sleep 100";
      let first = hear c in
      Alcotest.(check bool) "cap named" true
        (contains first "overload: client has 1 requests in flight (cap 1)");
      let second = hear c in
      Alcotest.(check bool) "accepted job still answered" true
        (contains second "\tok\t");
      hangup c)

let test_client_disconnect_mid_request () =
  with_daemon
    ~tweak:(fun c -> { c with Daemon.d_jobs = 1 })
    (fun path ->
      let c1 = dial path in
      say c1 "sleep 100";
      (* vanish while the job is queued or running: the daemon must
         swallow the dead socket and keep serving *)
      hangup c1;
      let c2 = dial path in
      say c2 "ping";
      Alcotest.(check string) "daemon survived the disconnect" "pong" (hear c2);
      say c2 "voting hypercube:2";
      Alcotest.(check bool) "still mapping" true (contains (hear c2) "\tok\t");
      hangup c2)

let test_quota_rejects () =
  with_daemon
    ~tweak:(fun c -> { c with Daemon.d_fuel_cap = Some 50 })
    (fun path ->
      let c = dial path in
      say c "voting hypercube:2 fuel=100";
      let line = hear c in
      Alcotest.(check bool) "explicit over-ask rejected by name" true
        (contains line "quota: fuel=100 exceeds cap 50");
      (* an unstated budget is clamped, not rejected *)
      say c "voting hypercube:2";
      Alcotest.(check bool) "clamped request runs" true
        (contains (hear c) "\tok\t");
      hangup c)

let test_queued_timeout () =
  with_daemon
    ~tweak:(fun c -> { c with Daemon.d_jobs = 1; d_timeout_ms = Some 50.0 })
    (fun path ->
      let c = dial path in
      (* the lone worker sleeps 200 ms, so the mapping request behind it
         waits out its 50 ms timeout in the queue *)
      say c "sleep 200";
      say c "voting hypercube:2";
      let sleep = hear c and late = hear c in
      Alcotest.(check bool) "sleep answered ok" true (contains sleep "\tok\t");
      (match fields late with
      | [ _; "voting"; _; status; _; _; _; _; attempts; _; error ] ->
        Alcotest.(check string) "error status" "error" status;
        Alcotest.(check bool)
          (Printf.sprintf "timeout named: %s" error)
          true
          (String.starts_with ~prefix:"timeout: queued " error);
        Alcotest.(check string) "ran no attempt" "0" attempts
      | _ -> Alcotest.failf "unexpected answer %S" late);
      hangup c)

let test_malformed_line_answered () =
  with_daemon (fun path ->
      let c = dial path in
      say c "lonely";
      let line = hear c in
      Alcotest.(check bool) "error status" true (contains line "\terror\t");
      Alcotest.(check bool) "says what it wants" true
        (contains line "PROGRAM TOPOLOGY");
      say c "nbody ring:4 fuel=1 fuel=2";
      Alcotest.(check bool) "duplicate key named" true
        (contains (hear c) "duplicate key");
      hangup c)

let test_stats_verb () =
  with_daemon
    ~tweak:(fun c -> { c with Daemon.d_cache_bound = Some 2 })
    (fun path ->
      let c = dial path in
      say c "voting hypercube:2";
      ignore (hear c);
      say c "voting hypercube:2";
      ignore (hear c);
      say c "stats";
      let s = hear c in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (Printf.sprintf "stats has %s" needle) true
            (contains s needle))
        [
          "(served 2)"; "(shed 0)"; "(quota-rejects 0)"; "(malformed 0)";
          "(programs (size 1) (bound 2) (hits 1) (misses 1)";
          "(topologies (size 1) (bound 2) (hits 1) (misses 1)";
          "(latency-ms (p50 "; "(p99 "; "(draining false)";
        ];
      hangup c)

(* the feeder drains one job per client lane in rotation, so a client
   flooding the queue only lengthens its own lane: a second client's
   single request must be answered after at most a couple of the
   flooder's jobs, not after all of them *)
let test_round_robin_fairness () =
  with_daemon
    ~tweak:(fun c -> { c with Daemon.d_jobs = 1 })
    (fun path ->
      let flood = dial path in
      List.iter (fun _ -> say flood "sleep 150") [ 1; 2; 3; 4; 5 ];
      (* wait until the lone worker holds the flooder's first job and
         the other four wait in its lane *)
      let rec settle n =
        if n = 0 then Alcotest.fail "flood never settled";
        say flood "stats";
        let s = hear flood in
        if not (contains s "(inflight 1)" && contains s "(queue-depth 4)")
        then begin
          Unix.sleepf 0.005;
          settle (n - 1)
        end
      in
      settle 100;
      let quiet = dial path in
      say quiet "sleep 150";
      (match fields (hear quiet) with
      | _ :: "sleep" :: _ :: status :: _ ->
        Alcotest.(check string) "quiet client answered ok" "ok" status
      | other -> Alcotest.failf "unexpected answer %S" (String.concat "\t" other));
      (* round-robin: at most inflight + one flood job + ours have been
         served when our answer lands; FIFO would make it all six *)
      say quiet "stats";
      let s = hear quiet in
      let served =
        let tag = "(served " in
        let rec find i =
          if i + String.length tag > String.length s then
            Alcotest.failf "no served count in %S" s
          else if String.sub s i (String.length tag) = tag then
            let j = ref (i + String.length tag) in
            let start = !j in
            while s.[!j] <> ')' do incr j done;
            int_of_string (String.sub s start (!j - start))
          else find (i + 1)
        in
        find 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "served %d <= 4 when the quiet client is answered"
           served)
        true (served <= 4);
      hangup quiet;
      (* the flooder's jobs all still complete *)
      List.iter
        (fun _ ->
          Alcotest.(check bool) "flood job ok" true
            (contains (hear flood) "\tok\t"))
        [ 1; 2; 3; 4; 5 ];
      hangup flood)

let test_stats_prometheus () =
  with_daemon (fun path ->
      let c = dial path in
      say c "voting hypercube:2";
      ignore (hear c);
      say c "stats --format prometheus";
      (* multi-line answer: the latency 0.99 quantile is always last *)
      let rec slurp acc =
        let line = hear c in
        if contains line "quantile=\"0.99\"" then List.rev (line :: acc)
        else slurp (line :: acc)
      in
      let body = slurp [] in
      let text = String.concat "\n" body in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (Printf.sprintf "scrape has %s" needle) true
            (contains text needle))
        [
          "# TYPE oregami_requests_served_total counter";
          "oregami_requests_served_total 1";
          "# TYPE oregami_queue_depth gauge";
          "oregami_cache_size{cache=\"programs\"} 1";
          "oregami_cache_hits_total{cache=\"topologies\"}";
          "oregami_request_latency_ms{quantile=\"0.5\"}";
        ];
      (* exposition rule: every sample of a family sits under its own
         TYPE line, before the next family starts *)
      let rec families seen = function
        | [] -> List.rev seen
        | line :: rest ->
          if String.length line > 7 && String.sub line 0 7 = "# TYPE " then
            families (List.nth (String.split_on_char ' ' line) 2 :: seen) rest
          else families seen rest
      in
      let fams = families [] body in
      Alcotest.(check int) "each family declared once"
        (List.length fams)
        (List.length (List.sort_uniq compare fams));
      say c "stats --format csv";
      Alcotest.(check bool) "unknown format named" true
        (contains (hear c) "unknown stats format");
      hangup c)

let test_cluster_verb () =
  with_daemon (fun path ->
      let c = dial path in
      say c "cluster torus:4x4 synth:20:7 chaos=4:kill-procs=3;12:revive-procs=3";
      let line = hear c in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (Printf.sprintf "summary has %s" needle) true
            (contains line needle))
        [ "(cluster "; "(events 22)"; "(admitted "; "(chaos-applied 2)" ];
      say c "cluster torus:4x4 synth:nope";
      Alcotest.(check bool) "bad trace spec named" true
        (contains (hear c) "error");
      (* the same synth:EVENTS[:SEED] grammar as the cluster command *)
      say c "cluster torus:4x4 synth:5:";
      Alcotest.(check bool) "trailing colon refused by name" true
        (contains (hear c) "bad synth trace \"synth:5:\"");
      hangup c)

(* the cluster verb's tail is a key list whose only key is chaos: a
   stray token is a cluster error, not a mapping request for a program
   called "cluster" *)
let test_cluster_verb_tail () =
  with_daemon (fun path ->
      let c = dial path in
      let answer line =
        say c line;
        match fields (hear c) with
        | [ _; program; _; status; _; _; _; _; _; _; error ] -> (program, status, error)
        | _ -> Alcotest.fail "not a result line"
      in
      Alcotest.(check (triple string string string)) "stray token"
        ("cluster", "error", "cluster: bad token \"extra\" (want key=value)")
        (answer "cluster torus:4x4 synth:10 chaos=1:kill-procs=3 extra");
      Alcotest.(check (triple string string string)) "unknown key"
        ("cluster", "error", "cluster: unknown key \"seed\" (want chaos=SPEC)")
        (answer "cluster torus:4x4 synth:10 seed=3");
      Alcotest.(check (triple string string string)) "repeated chaos"
        ("cluster", "error", "cluster: duplicate key \"chaos\" (each key may appear once)")
        (answer "cluster torus:4x4 synth:10 chaos=1:kill-procs=3 chaos=2:kill-procs=4");
      Alcotest.(check (triple string string string)) "missing trace"
        ("cluster", "error", "cluster: want cluster TOPO synth:EVENTS[:SEED] [chaos=SPEC]")
        (answer "cluster torus:4x4");
      (* the connection stays up and well-formed runs still go through *)
      say c "cluster torus:4x4 synth:10 chaos=1:kill-procs=3";
      Alcotest.(check bool) "summary after errors" true (contains (hear c) "(cluster ");
      hangup c)

(* a machine the family cannot build, or one past the processor cap,
   is a named cluster error; the job is answered and counted done, so
   the daemon still drains *)
let test_cluster_verb_bad_machine () =
  with_daemon (fun path ->
      let c = dial path in
      let error line =
        say c line;
        match fields (hear c) with
        | [ _; "cluster"; _; "error"; _; _; _; _; _; _; error ] -> error
        | _ -> Alcotest.fail "not a cluster error line"
      in
      Alcotest.(check string) "zero rows" "cluster: mesh rows must be at least 1, got 0"
        (error "cluster mesh:0x4 synth:5");
      Alcotest.(check string) "past the cap"
        "cluster: hypercube:70 exceeds the 8192-processor cap"
        (error "cluster hypercube:70 synth:5");
      say c "cluster mesh:2x2 synth:5";
      Alcotest.(check bool) "a good machine still runs" true (contains (hear c) "(cluster ");
      hangup c)

let () =
  (* a client that hangs up mid-answer must surface as EPIPE on the
     daemon's write, not kill this process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Alcotest.run "daemon"
    [
      ( "daemon",
        [
          Alcotest.test_case "lifecycle" `Quick test_lifecycle;
          Alcotest.test_case "answers match the batch service" `Quick
            test_answers_match_batch_service;
          Alcotest.test_case "queue-full shedding" `Quick test_queue_full_shedding;
          Alcotest.test_case "inflight cap shedding" `Quick
            test_inflight_cap_shedding;
          Alcotest.test_case "client disconnect mid-request" `Quick
            test_client_disconnect_mid_request;
          Alcotest.test_case "quota rejects" `Quick test_quota_rejects;
          Alcotest.test_case "queued timeout" `Quick test_queued_timeout;
          Alcotest.test_case "malformed lines answered" `Quick
            test_malformed_line_answered;
          Alcotest.test_case "stats verb" `Quick test_stats_verb;
          Alcotest.test_case "round-robin fairness" `Quick
            test_round_robin_fairness;
          Alcotest.test_case "stats --format prometheus" `Quick
            test_stats_prometheus;
          Alcotest.test_case "cluster verb" `Quick test_cluster_verb;
          Alcotest.test_case "cluster verb tail" `Quick test_cluster_verb_tail;
          Alcotest.test_case "cluster verb on a bad machine" `Quick
            test_cluster_verb_bad_machine;
        ] );
    ]
