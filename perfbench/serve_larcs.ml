(* serve-larcs: request lines sent to `oregami daemon --jobs 1` over a
   Unix socket by one closed-loop client (each request waits for its
   answer before the next is sent).

   The key set is fixed: the paper's eleven LaRCS programs at several
   parameter sizes on torus, mesh and hypercube targets, a few of them
   carrying fuel= so the budgeted retry path runs.  It names more
   distinct programs than the daemon's cache bound, so the caches both
   hit and miss.  A round sends 100 requests, every key its weight's
   number of times (hot keys 6x), in an order drawn from the seed; the
   order decides which requests hit the caches.  The two heaviest keys
   (about 15 ms each, the rest under 8 ms) make up 2% of a round, so
   the p99 latency falls mid-way through their population rather than
   on the edge between two keys.

   Every answer must be ok and equal, wall-clock aside, to every other
   answer for its key and to an in-process Service.run_request of the
   same line.  The quality figures come from in-process mappings of the
   distinct unbudgeted keys, outside the timed part. *)

open Oregami
open Common

let cache_bound = 16

(* (request line, weight per round) *)
let keys =
  [
    ("nbody torus:4x4", 6); ("nbody torus:4x4 n=31 s=2", 1); ("nbody hypercube:5 n=63 s=2", 1);
    ("nbody torus:8x8 fuel=2000", 1);
    ("matmul mesh:4x4 n=4", 6); ("matmul torus:4x4 n=8", 1); ("matmul mesh:8x8 n=8", 1);
    ("matmul hypercube:4 n=6", 1);
    ("fft hypercube:4", 6); ("fft hypercube:4 n=32", 1); ("fft hypercube:5 n=32", 1);
    ("topsort hypercube:4 l=4 w=16", 1); ("topsort torus:4x4 l=8 w=8", 1);
    ("topsort mesh:4x4 fuel=2000", 1);
    ("divconq hypercube:4", 6); ("divconq hypercube:4 n=8", 6); ("divconq mesh:4x4", 1);
    ("annealing mesh:4x4 n=8 s=2", 6); ("annealing hypercube:4 n=4 s=4", 1);
    ("jacobi mesh:4x4", 6); ("jacobi torus:8x8 n=8 t=2", 6); ("jacobi hypercube:4 n=6 t=3", 1);
    ("jacobi mesh:8x8 n=16 t=2", 1);
    ("sor torus:4x4 n=8 t=2", 6); ("sor hypercube:5 n=8 t=2", 1); ("sor mesh:4x4", 1);
    ("voting hypercube:3", 6); ("voting hypercube:4 n=16", 6); ("voting torus:4x4", 1);
    ("spawned torus:4x4 d=3", 6); ("spawned hypercube:4", 1); ("spawned hypercube:4 fuel=1000", 1);
    ("matmul3d mesh:4x4 n=3", 6); ("matmul3d torus:4x4", 1); ("matmul3d hypercube:5 n=4", 1);
  ]

let round_lines = List.concat_map (fun (line, w) -> List.init w (fun _ -> line)) keys

(* ------------------------------------------------------------------ *)
(* the daemon process and its one connection *)

type conn = { pid : int; ic : in_channel; oc : out_channel }

let daemon_pid = ref 0

(* a daemon left behind by an exception must not outlive the run *)
let () =
  at_exit (fun () ->
      if !daemon_pid > 0 then begin
        (try Unix.kill !daemon_pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] !daemon_pid) with Unix.Unix_error _ -> ());
        daemon_pid := 0
      end)

let request conn line =
  output_string conn.oc line;
  output_char conn.oc '\n';
  flush conn.oc;
  input_line conn.ic

let start_daemon (args : args) sock =
  (try Sys.remove sock with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let argv =
    [| args.oregami; "daemon"; "--socket"; sock; "--jobs"; "1"; "--cache-bound"; string_of_int cache_bound |]
  in
  let pid = Unix.create_process args.oregami argv devnull devnull Unix.stderr in
  Unix.close devnull;
  daemon_pid := pid;
  (* poll until the daemon listens: it binds before it accepts *)
  let rec dial tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.0005;
      dial (tries - 1)
  in
  let fd = dial 20_000 in
  let conn = { pid; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd } in
  match request conn "ping" with
  | "pong" -> conn
  | other -> failwith ("daemon answered ping with " ^ other)

let stop_daemon conn =
  (* half-close: the daemon answers what is pending, then closes *)
  Unix.shutdown (Unix.descr_of_out_channel conn.oc) Unix.SHUTDOWN_SEND;
  close_in_noerr conn.ic;
  Unix.kill conn.pid Sys.sigterm;
  let _, status = Unix.waitpid [] conn.pid in
  daemon_pid := 0;
  status = Unix.WEXITED 0

(* "(programs (size N) (bound B) (hits H) (misses M) ...)" -> (H, M) *)
let cache_counts stats cache =
  let tag = "(" ^ cache ^ " " in
  let rec find i =
    if i + String.length tag > String.length stats then None
    else if String.sub stats i (String.length tag) = tag then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i -> (
    try
      Scanf.sscanf (String.sub stats i (String.length stats - i))
        "(%_s (size %_d) (bound %_s@) (hits %d) (misses %d)"
        (fun h m -> Some (h, m))
    with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)

(* ------------------------------------------------------------------ *)
(* answers *)

(* the deterministic part of a TSV answer: status, strategy,
   degradation, completion, attempts, fuel, error (ids and elapsed
   wall-clock vary) *)
type answer = {
  a_ok : bool;
  a_fields : string list;
  a_strategy : string;
  a_completion : int;
  a_attempts : int;
  a_fuel : int;
}

let parse_answer line =
  match String.split_on_char '\t' line with
  | [ _id; _prog; _topo; status; strategy; degradation; completion; _elapsed; attempts; fuel; error ] ->
    Some
      {
        a_ok = status = "ok";
        a_fields = [ status; strategy; degradation; completion; attempts; fuel; error ];
        a_strategy = strategy;
        a_completion = Option.value (int_of_string_opt completion) ~default:0;
        a_attempts = Option.value (int_of_string_opt attempts) ~default:0;
        a_fuel = Option.value (int_of_string_opt fuel) ~default:0;
      }
  | _ -> None

let of_outcome (o : Service.outcome) =
  match parse_answer (Service.render Service.Tsv o) with
  | Some a -> a
  | None -> failwith "Service.render produced an unexpected line"

(* ------------------------------------------------------------------ *)
(* in-process reference mappings *)

let parse line =
  match Service.parse_request ~id:1 line with
  | Ok (Some req) -> req
  | Ok None -> failwith ("blank request " ^ line)
  | Error e -> failwith (line ^ ": " ^ e)

let compile (req : Service.request) =
  Spans.span "larcs.compile" (fun () ->
      let ( let* ) = Result.bind in
      let* source, defaults = Service.load_program req.Service.rq_program in
      let bindings =
        req.Service.rq_bindings
        @ List.filter (fun (k, _) -> not (List.mem_assoc k req.Service.rq_bindings)) defaults
      in
      Larcs.Compile.compile_source ~bindings source)

let run (args : args) =
  let sock = Filename.concat args.out_dir (Printf.sprintf "daemon-%d.sock" (Unix.getpid ())) in
  let conn = start_daemon args sock in
  let setup_s = Clock.now () -. process_start in
  (* the timed part: a closed loop, one request in flight *)
  let answers = Hashtbl.create 64 in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let failed = ref 0 and attempts = ref 0 and fuel = ref 0 in
  let timing =
    run_rounds ~seconds:args.seconds
      ~ops_of_round:(fun round -> shuffled ~seed:args.seed ~round round_lines)
      (fun ~round:_ ~rid line ->
        let reply = Spans.span ~rid "request" (fun () -> request conn line) in
        fun () ->
        match parse_answer reply with
        | None ->
          incr failed;
          problem "%s: unreadable answer %S" line reply
        | Some a -> (
          if not a.a_ok then begin
            incr failed;
            log "%s: %s" line reply
          end;
          attempts := !attempts + a.a_attempts;
          fuel := !fuel + a.a_fuel;
          match Hashtbl.find_opt answers line with
          | None -> Hashtbl.replace answers line a
          | Some a0 ->
            if a0.a_fields <> a.a_fields then
              problem "%s: answered %S, earlier %S" line reply (String.concat "\t" a0.a_fields)))
  in
  let ops = rounds timing * List.length round_lines in
  let per_round = float_of_int (rounds timing) in
  let stats = request conn "stats" in
  let peak_rss = peak_rss_mb conn.pid in
  if not (stop_daemon conn) then problem "daemon did not drain cleanly on SIGTERM";
  (* every distinct key against an in-process run of the same line;
     the unbudgeted ones are also mapped in-process (replayed layer by
     layer in a traced run), checked, and priced *)
  let targets = Hashtbl.create 8 in
  let target spec =
    match Hashtbl.find_opt targets spec with
    | Some td -> td
    | None ->
      let topo = build_topology spec in
      let td = (topo, Checks.bfs_distances topo) in
      Hashtbl.replace targets spec td;
      td
  in
  let map_in_process (req : Service.request) compiled =
    if args.trace then ignore (Spans.span "larcs.analyze" (fun () -> Larcs.Analyze.analyze compiled));
    let topo, dist = target req.Service.rq_topology in
    let ctx = Ctx.of_compiled ~options:req.Service.rq_options compiled topo in
    let mapped =
      if args.trace then Replay.run ctx
      else Result.map (fun (m, _) -> (m, Metrics.completion_time m)) (Driver.run ctx)
    in
    Result.bind mapped (fun (m, c) ->
        Result.map (fun q -> (m, c, q)) (assess ~dist ~fault_pricing:true m))
  in
  let total = ref no_quality in
  List.iter
    (fun (line, _) ->
      let req = parse line in
      let reference = of_outcome (Service.run_request req) in
      (match Hashtbl.find_opt answers line with
      | Some a when a.a_fields <> reference.a_fields ->
        problem "%s: daemon answered %s, in-process %s" line (String.concat " " a.a_fields)
          (String.concat " " reference.a_fields)
      | Some _ | None -> ());
      total := { !total with completion = !total.completion + reference.a_completion };
      if req.Service.rq_options.Ctx.fuel = None then
        match Result.bind (compile req) (map_in_process req) with
        | Error e -> problem "%s: in-process mapping: %s" line e
        | Ok (m, c, q) ->
          if c <> reference.a_completion || m.Mapping.strategy <> reference.a_strategy then
            problem "%s: in-process mapping %s (%d), service %s (%d)" line m.Mapping.strategy c
              reference.a_strategy reference.a_completion;
          (* its completion is counted from the answer already *)
          total := add_quality !total { q with completion = 0 })
    keys;
  (* traced run: parse cost, and the daemon's overhead over the same
     requests served in-process with the same cache bound *)
  let layers =
    if not args.trace then []
    else begin
      let lines = shuffled ~seed:args.seed ~round:0 round_lines in
      List.iter (fun line -> ignore (Spans.span "service.parse" (fun () -> Service.parse_request ~id:1 line))) lines;
      let caches = Service.caches ~bound:cache_bound () in
      let inproc =
        List.mapi
          (fun i line ->
            match Service.parse_request ~id:(i + 1) line with
            | Ok (Some req) -> snd (timed (fun () -> Service.run_request ~caches req)) *. 1e3
            | Ok None | Error _ -> 0.0)
          lines
      in
      let hits, misses =
        match (cache_counts stats "programs", cache_counts stats "topologies") with
        | Some (h1, m1), Some (h2, m2) -> (float_of_int (h1 + h2), float_of_int (m1 + m2))
        | _ ->
          problem "unreadable stats line %S" stats;
          (0.0, 0.0)
      in
      [
        ("daemon.overhead_ms", percentile (latencies timing) 50.0 -. percentile inproc 50.0);
        ("daemon.cache_hits", hits /. per_round);
        ("daemon.cache_misses", misses /. per_round);
        ("service.attempts", float_of_int !attempts /. per_round);
        ("budget.fuel_used", float_of_int !fuel /. per_round);
      ]
    end
  in
  List.iter (fun p -> log "check failed: %s" p) (List.rev !problems);
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
        ("peak_rss_mb", peak_rss);
      ]
      @ quality_metrics !total;
    layers;
  }
