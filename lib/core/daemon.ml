(* Long-lived network front end over the batch mapping service.

   One accept loop hands each connection to a reader systhread;
   readers parse the line protocol and push accepted jobs onto a
   persistent [Pool.feeder] of worker domains.  Admission is the
   load-shedding point: the feeder's queue bound, a per-client
   inflight cap, and the configured quotas each reject by name with a
   normal error result line, so a client always gets exactly one
   answer per request and can tell "mapping failed" from "daemon said
   no".  SIGTERM/SIGINT flip one atomic flag; the accept loop then
   stops admitting, nudges idle readers off [input_line] with
   [shutdown SHUTDOWN_RECEIVE], waits for every accepted job to be
   answered, and returns 0. *)

module Ctx = Oregami_mapper.Ctx
module Isolate = Oregami_mapper.Isolate
module Clock = Oregami_prelude.Clock
module Memo = Oregami_prelude.Memo
module Pool = Oregami_prelude.Pool

type listen = Unix_socket of string | Tcp of int

type config = {
  d_listen : listen;
  d_jobs : int;
  d_queue_bound : int;
  d_max_inflight : int;
  d_fuel_cap : int option;
  d_deadline_cap_ms : float option;
  d_timeout_ms : float option;
  d_cache_bound : int option;
  d_format : Service.format;
}

let default_config listen =
  {
    d_listen = listen;
    d_jobs = Pool.default_jobs ();
    d_queue_bound = 64;
    d_max_inflight = 8;
    d_fuel_cap = None;
    d_deadline_cap_ms = None;
    d_timeout_ms = None;
    d_cache_bound = Some Service.cache_bound;
    d_format = Service.Tsv;
  }

(* ------------------------------------------------------------------ *)
(* per-connection state                                               *)

type client = {
  c_fd : Unix.file_descr;
  c_oc : out_channel;  (* on a dup of [c_fd], so closing both is safe *)
  c_key : int;  (* admission lane: the feeder drains clients round-robin *)
  c_lock : Mutex.t;  (* guards the channel and the counters below *)
  c_done : Condition.t;  (* signalled whenever [c_pending] drops *)
  mutable c_pending : int;  (* accepted jobs not yet answered *)
  mutable c_id : int;  (* last request ordinal handed out *)
}

type kind =
  | Jrun of Service.request
  | Jsleep of int * float  (* id, ms *)
  | Jcluster of { jc_id : int; jc_topo : string; jc_trace : string; jc_chaos : string option }
type job = { j_client : client; j_kind : kind; j_admit : float }

(* latency ring: enough history for stable p99 without unbounded
   growth — the bounded-memory rule applies to the daemon's own
   telemetry too *)
let lat_window = 4096

type t = {
  cfg : config;
  breaker : Isolate.breaker;
  caches : Service.caches;
  stopping : bool Atomic.t;
  lock : Mutex.t;  (* guards counters, the ring and the client list *)
  mutable clients : client list;
  mutable client_seq : int;  (* admission keys handed out *)
  mutable served : int;  (* accepted jobs answered (ok or error) *)
  mutable shed : int;  (* overload rejections *)
  mutable quota_rejects : int;
  mutable bad_lines : int;  (* malformed request lines *)
  lat : float array;
  mutable lat_n : int;  (* total latencies ever recorded *)
  mutable feeder : job Pool.feeder option;  (* set once, before accept *)
}

let feeder_exn t =
  match t.feeder with
  | Some f -> f
  | None -> invalid_arg "Daemon: feeder not initialised"

let send cl line =
  Mutex.lock cl.c_lock;
  (* a disappeared client (EPIPE with SIGPIPE ignored) must not kill
     the worker; the reader notices the disconnect on its own *)
  (try
     output_string cl.c_oc line;
     output_char cl.c_oc '\n';
     flush cl.c_oc
   with Sys_error _ -> ());
  Mutex.unlock cl.c_lock

let job_done cl =
  Mutex.lock cl.c_lock;
  cl.c_pending <- cl.c_pending - 1;
  Condition.broadcast cl.c_done;
  Mutex.unlock cl.c_lock

(* ------------------------------------------------------------------ *)
(* stats                                                              *)

let record_latency t ms =
  Mutex.lock t.lock;
  t.lat.(t.lat_n mod lat_window) <- ms;
  t.lat_n <- t.lat_n + 1;
  t.served <- t.served + 1;
  Mutex.unlock t.lock

(* nearest-rank percentile over the retained window *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

(* one consistent snapshot feeding both exposition formats *)
type snapshot = {
  sn_served : int;
  sn_shed : int;
  sn_quota : int;
  sn_bad : int;
  sn_depth : int;
  sn_inflight : int;
  sn_draining : bool;
  sn_tripped : string list;
  sn_programs : Memo.stats;
  sn_topologies : Memo.stats;
  sn_p50 : float;
  sn_p99 : float;
}

let snapshot t =
  let served, shed, quota, bad, lats =
    Mutex.protect t.lock (fun () ->
        let n = min t.lat_n lat_window in
        (t.served, t.shed, t.quota_rejects, t.bad_lines, Array.sub t.lat 0 n))
  in
  Array.sort compare lats;
  let f = feeder_exn t in
  {
    sn_served = served;
    sn_shed = shed;
    sn_quota = quota;
    sn_bad = bad;
    sn_depth = Pool.depth f;
    sn_inflight = Pool.inflight f;
    sn_draining = Atomic.get t.stopping;
    sn_tripped = Isolate.tripped t.breaker;
    sn_programs = Memo.stats t.caches.Service.c_programs;
    sn_topologies = Memo.stats t.caches.Service.c_topologies;
    sn_p50 = percentile lats 50.0;
    sn_p99 = percentile lats 99.0;
  }

let stats_line t =
  let s = snapshot t in
  let cache name (c : Memo.stats) =
    Printf.sprintf "(%s (size %d) (bound %s) (hits %d) (misses %d) (evictions %d))"
      name c.Memo.mc_size
      (match c.Memo.mc_bound with None -> "-" | Some b -> string_of_int b)
      c.Memo.mc_hits c.Memo.mc_misses c.Memo.mc_evictions
  in
  Printf.sprintf
    "(stats (served %d) (shed %d) (quota-rejects %d) (malformed %d) \
     (queue-depth %d) (inflight %d) (draining %b) (tripped (%s)) %s %s \
     (latency-ms (p50 %.3f) (p99 %.3f)))"
    s.sn_served s.sn_shed s.sn_quota s.sn_bad s.sn_depth s.sn_inflight
    s.sn_draining
    (String.concat " " s.sn_tripped)
    (cache "programs" s.sn_programs)
    (cache "topologies" s.sn_topologies)
    s.sn_p50 s.sn_p99

(* Prometheus text exposition (version 0.0.4): same snapshot, one
   metric per line, ready for a scrape job pointed at [stats
   --format prometheus] *)
let stats_prometheus t =
  let s = snapshot t in
  let b = Buffer.create 1024 in
  let metric ?(labels = "") ~typ ~help name v =
    Printf.bprintf b "# HELP %s %s\n# TYPE %s %s\n%s%s %s\n" name help name typ
      name labels v
  in
  metric ~typ:"counter" ~help:"Accepted jobs answered (ok or error)."
    "oregami_requests_served_total" (string_of_int s.sn_served);
  metric ~typ:"counter" ~help:"Requests rejected by overload shedding."
    "oregami_requests_shed_total" (string_of_int s.sn_shed);
  metric ~typ:"counter" ~help:"Requests rejected by budget quotas."
    "oregami_quota_rejects_total" (string_of_int s.sn_quota);
  metric ~typ:"counter" ~help:"Malformed request lines."
    "oregami_malformed_lines_total" (string_of_int s.sn_bad);
  metric ~typ:"gauge" ~help:"Jobs waiting in the admission queue."
    "oregami_queue_depth" (string_of_int s.sn_depth);
  metric ~typ:"gauge" ~help:"Jobs being processed right now."
    "oregami_inflight_jobs" (string_of_int s.sn_inflight);
  metric ~typ:"gauge" ~help:"1 while the daemon is draining for shutdown."
    "oregami_draining" (if s.sn_draining then "1" else "0");
  metric ~typ:"gauge" ~help:"Strategies benched by the circuit breaker."
    "oregami_strategies_tripped" (string_of_int (List.length s.sn_tripped));
  (* all samples of one family must sit together under its TYPE line *)
  let cache_family ~typ ~help name field =
    Printf.bprintf b "# HELP %s %s\n# TYPE %s %s\n" name help name typ;
    List.iter
      (fun (label, c) ->
        Printf.bprintf b "%s{cache=%S} %d\n" name label (field c))
      [ ("programs", s.sn_programs); ("topologies", s.sn_topologies) ]
  in
  cache_family ~typ:"gauge" ~help:"Entries in a build-once artifact cache."
    "oregami_cache_size" (fun (c : Memo.stats) -> c.Memo.mc_size);
  cache_family ~typ:"counter" ~help:"Artifact cache hits."
    "oregami_cache_hits_total" (fun c -> c.Memo.mc_hits);
  cache_family ~typ:"counter" ~help:"Artifact cache misses."
    "oregami_cache_misses_total" (fun c -> c.Memo.mc_misses);
  cache_family ~typ:"counter" ~help:"Artifact cache LRU evictions."
    "oregami_cache_evictions_total" (fun c -> c.Memo.mc_evictions);
  Printf.bprintf b
    "# HELP oregami_request_latency_ms Admit-to-answer latency over the \
     retained window.\n\
     # TYPE oregami_request_latency_ms gauge\n\
     oregami_request_latency_ms{quantile=\"0.5\"} %.3f\n\
     oregami_request_latency_ms{quantile=\"0.99\"} %.3f"
    s.sn_p50 s.sn_p99;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* the worker side                                                    *)

(* a daemon-driven cluster trace is capped so one request line cannot
   pin a worker domain for minutes *)
let cluster_max_events = 500

(* [cluster TOPO synth:EVENTS[:SEED] [chaos=SPEC]]: run a whole online
   lifecycle in one job, answer one s-expression summary line *)
let run_cluster ~jc_topo ~jc_trace ~jc_chaos =
  let ( let* ) = Result.bind in
  let* machine = Oregami_topology.Topology.of_string jc_topo in
  let* events, seed = Cluster.parse_synth_trace jc_trace in
  let* () =
    if events > cluster_max_events then
      Error (Printf.sprintf "trace of %d events exceeds cap %d" events cluster_max_events)
    else Ok ()
  in
  let* chaos =
    match jc_chaos with None -> Ok [] | Some s -> Cluster.parse_chaos s
  in
  let* r = Cluster.run ~chaos machine (Cluster.synth_trace ~events ~seed machine) in
  Ok
    (Printf.sprintf
       "(cluster (events %d) (admitted %d) (completed %d) (cancelled %d) \
        (refused %d) (shed %d) (repairs %d) (remaps %d) (evictions %d) \
        (repacks %d) (migration %d) (chaos-applied %d) (chaos-refused %d))"
       r.Cluster.rp_events r.Cluster.rp_admitted r.Cluster.rp_completed
       r.Cluster.rp_cancelled
       (List.length r.Cluster.rp_refused)
       (List.length r.Cluster.rp_shed)
       r.Cluster.rp_repairs r.Cluster.rp_remaps r.Cluster.rp_evictions
       r.Cluster.rp_repacks r.Cluster.rp_migration_total
       r.Cluster.rp_chaos_applied r.Cluster.rp_chaos_refused)

(* the [cluster] verb's arguments: a key=value tail whose only key is
   chaos, so a stray token is a named error, not a mapping request *)
let parse_cluster = function
  | topo :: trace :: rest ->
    Service.fold_keys
      (fun _ k v ->
        if k = "chaos" then Ok (Some v)
        else Error (Printf.sprintf "unknown key %S (want chaos=SPEC)" k))
      None rest
    |> Result.map (fun chaos -> (topo, trace, chaos))
  | _ -> Error "want cluster TOPO synth:EVENTS[:SEED] [chaos=SPEC]"

let answer t job =
  match job.j_kind with
  | Jcluster { jc_id; jc_topo; jc_trace; jc_chaos } -> begin
    (* answered as one s-expression line of cluster counters, not a
       mapping outcome row *)
    match run_cluster ~jc_topo ~jc_trace ~jc_chaos with
    | Ok line -> line
    | Error e ->
      Service.render t.cfg.d_format
        (Service.refusal ~id:jc_id ~program:"cluster" ~topology:jc_topo
           ("cluster: " ^ e))
  end
  | Jsleep _ | Jrun _ ->
  let outcome =
    match job.j_kind with
    | Jcluster _ -> assert false
    | Jsleep (id, ms) ->
      Unix.sleepf (ms /. 1e3);
      {
        (Service.refusal ~id ~program:"sleep" ~topology:(Printf.sprintf "%.0f" ms) "") with
        Service.r_ok = true;
        r_elapsed_ms = Clock.elapsed_ms job.j_admit;
        r_attempts = 1;
      }
    | Jrun req -> begin
      let waited_ms = Clock.elapsed_ms job.j_admit in
      match t.cfg.d_timeout_ms with
      | Some tmo when waited_ms >= tmo ->
        (* dead on arrival: queueing ate the whole budget *)
        Service.refusal ~id:req.Service.rq_id ~program:req.Service.rq_program
          ~topology:req.Service.rq_topology
          (Printf.sprintf "timeout: queued %.0f ms (timeout %.0f ms)"
             waited_ms tmo)
      | tmo ->
        (* the remaining wall-clock timeout becomes the mapper's own
           deadline, so a stale request degrades instead of hogging a
           worker past its due date *)
        let req =
          match tmo with
          | None -> req
          | Some tmo ->
            let remaining = tmo -. waited_ms in
            let deadline =
              match req.Service.rq_options.Ctx.deadline_ms with
              | None -> remaining
              | Some d -> Float.min d remaining
            in
            {
              req with
              Service.rq_options =
                { req.Service.rq_options with Ctx.deadline_ms = Some deadline };
            }
        in
        Service.run_request ~breaker:t.breaker ~caches:t.caches req
    end
  in
  Service.render t.cfg.d_format outcome

(* every accepted job is answered and counted done, even when its body
   raises: the feeder swallows a raise, and a job left pending would
   keep its client's drain waiting forever *)
let run_job t job =
  let line =
    match Isolate.protect (fun () -> answer t job) with
    | Ok line -> line
    | Error exn ->
      let id, program, topology =
        match job.j_kind with
        | Jcluster { jc_id; jc_topo; _ } -> (jc_id, "cluster", jc_topo)
        | Jsleep (id, ms) -> (id, "sleep", Printf.sprintf "%.0f" ms)
        | Jrun req -> (req.Service.rq_id, req.Service.rq_program, req.Service.rq_topology)
      in
      Service.render t.cfg.d_format
        (Service.refusal ~id ~program ~topology ("internal crash: " ^ exn))
  in
  record_latency t (Clock.elapsed_ms job.j_admit);
  send job.j_client line;
  job_done job.j_client

(* ------------------------------------------------------------------ *)
(* admission                                                          *)

(* configured caps clamp an unstated budget and reject an explicit
   over-ask by name; a clamped request still runs *)
let apply_quota cfg req =
  let ( let* ) = Result.bind in
  let capped name show cap v =
    match (cap, v) with
    | Some cap, None -> Ok (Some cap)
    | Some cap, Some v when v > cap ->
      Error (Printf.sprintf "quota: %s=%s exceeds cap %s" name (show v) (show cap))
    | _, v -> Ok v
  in
  let o = req.Service.rq_options in
  let* fuel = capped "fuel" string_of_int cfg.d_fuel_cap o.Ctx.fuel in
  let* deadline_ms =
    capped "deadline-ms" (Printf.sprintf "%g") cfg.d_deadline_cap_ms o.Ctx.deadline_ms
  in
  Ok { req with Service.rq_options = { o with Ctx.fuel; Ctx.deadline_ms } }

(* reader-side replies for refused work: no pending slot was taken *)
let refuse t cl ~shed ~id ~program ~topology msg =
  Mutex.lock t.lock;
  if shed then t.shed <- t.shed + 1 else t.quota_rejects <- t.quota_rejects + 1;
  Mutex.unlock t.lock;
  send cl (Service.render t.cfg.d_format (Service.refusal ~id ~program ~topology msg))

let enqueue t cl ~id ~program ~topology kind =
  let cfg = t.cfg in
  if Atomic.get t.stopping then
    refuse t cl ~shed:true ~id ~program ~topology "unavailable: daemon draining"
  else begin
    Mutex.lock cl.c_lock;
    if cl.c_pending >= cfg.d_max_inflight then begin
      let pending = cl.c_pending in
      Mutex.unlock cl.c_lock;
      refuse t cl ~shed:true ~id ~program ~topology
        (Printf.sprintf "overload: client has %d requests in flight (cap %d)"
           pending cfg.d_max_inflight)
    end
    else begin
      (* reserve the slot before [offer] so racing admits cannot
         overshoot the cap; release it if the queue sheds us *)
      cl.c_pending <- cl.c_pending + 1;
      Mutex.unlock cl.c_lock;
      let job = { j_client = cl; j_kind = kind; j_admit = Clock.now () } in
      (* each client queues in its own lane; the pool drains lanes
         round-robin, so a flooding client cannot starve the others *)
      if not (Pool.offer_keyed (feeder_exn t) ~key:cl.c_key job) then begin
        job_done cl;
        refuse t cl ~shed:true ~id ~program ~topology
          (Printf.sprintf "overload: admission queue full (bound %d)"
             cfg.d_queue_bound)
      end
    end
  end

let malformed t cl line e =
  cl.c_id <- cl.c_id + 1;
  Mutex.lock t.lock;
  t.bad_lines <- t.bad_lines + 1;
  Mutex.unlock t.lock;
  send cl (Service.render t.cfg.d_format (Service.malformed ~id:cl.c_id ~line e))

let admit t cl line =
  match Service.parse_request ~id:(cl.c_id + 1) line with
  | Ok None -> ()
  | Error e -> malformed t cl line e
  | Ok (Some req) -> begin
    cl.c_id <- cl.c_id + 1;
    let program = req.Service.rq_program
    and topology = req.Service.rq_topology in
    match apply_quota t.cfg req with
    | Error msg ->
      refuse t cl ~shed:false ~id:req.Service.rq_id ~program ~topology msg
    | Ok req ->
      enqueue t cl ~id:req.Service.rq_id ~program ~topology (Jrun req)
  end

(* ------------------------------------------------------------------ *)
(* readers and the accept loop                                        *)

let reader t cl =
  let ic = Unix.in_channel_of_descr cl.c_fd in
  (try
     let quit = ref false in
     while not !quit do
       let line = input_line ic in
       match Service.tokens (String.trim line) with
       | [ "quit" ] -> quit := true
       | [ "ping" ] -> send cl "pong"
       | [ "stats" ] | [ "stats"; "--format"; "sexp" ] -> send cl (stats_line t)
       | [ "stats"; "prometheus" ] | [ "stats"; "--format"; "prometheus" ] ->
         send cl (stats_prometheus t)
       | [ "stats"; "--format"; fmt ] ->
         send cl (Printf.sprintf "error unknown stats format %S" fmt)
       | "cluster" :: args -> begin
         match parse_cluster args with
         | Error e -> malformed t cl line ("cluster: " ^ e)
         | Ok (topo, trace, chaos) ->
           cl.c_id <- cl.c_id + 1;
           enqueue t cl ~id:cl.c_id ~program:"cluster" ~topology:topo
             (Jcluster
                { jc_id = cl.c_id; jc_topo = topo; jc_trace = trace; jc_chaos = chaos })
       end
       | [ "sleep"; ms ] when float_of_string_opt ms <> None ->
         (* a queued no-op job: deterministic service time, so tests
            and benchmarks can shape load without touching the mapper *)
         cl.c_id <- cl.c_id + 1;
         enqueue t cl ~id:cl.c_id ~program:"sleep" ~topology:ms
           (Jsleep (cl.c_id, float_of_string ms))
       | _ -> admit t cl line
     done
   with End_of_file | Sys_error _ -> ());
  (* the reader owns the socket: wait until every accepted job for
     this client is answered, then close both fds exactly once *)
  Mutex.lock cl.c_lock;
  while cl.c_pending > 0 do
    Condition.wait cl.c_done cl.c_lock
  done;
  Mutex.unlock cl.c_lock;
  Mutex.lock t.lock;
  t.clients <- List.filter (fun c -> c != cl) t.clients;
  Mutex.unlock t.lock;
  close_out_noerr cl.c_oc;
  (try Unix.close cl.c_fd with Unix.Unix_error _ -> ())

let bind_socket = function
  | Unix_socket path ->
    (* a stale socket file from a killed daemon would make bind fail
       forever; replacing it is the restart semantics we want *)
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind s (Unix.ADDR_UNIX path);
    Unix.listen s 64;
    s
  | Tcp port ->
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt s Unix.SO_REUSEADDR true;
    Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen s 64;
    s

type controller = { ctl_stopping : bool Atomic.t }

let shutdown c = Atomic.set c.ctl_stopping true

let run ?ready ?(handle_signals = true) cfg =
  if cfg.d_jobs < 1 then invalid_arg "Daemon.run: jobs must be >= 1";
  if cfg.d_queue_bound < 0 then
    invalid_arg "Daemon.run: queue bound must be >= 0";
  if cfg.d_max_inflight < 1 then
    invalid_arg "Daemon.run: max inflight must be >= 1";
  let t =
    {
      cfg;
      breaker = Isolate.breaker ();
      caches = Service.caches ?bound:cfg.d_cache_bound ();
      stopping = Atomic.make false;
      lock = Mutex.create ();
      clients = [];
      client_seq = 0;
      served = 0;
      shed = 0;
      quota_rejects = 0;
      bad_lines = 0;
      lat = Array.make lat_window 0.0;
      lat_n = 0;
      feeder = None;
    }
  in
  t.feeder <- Some (Pool.feeder ~jobs:cfg.d_jobs ~bound:cfg.d_queue_bound (run_job t));
  let sock = bind_socket cfg.d_listen in
  if handle_signals then begin
    (* a vanished client must surface as EPIPE on write, not kill us *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    let stop = Sys.Signal_handle (fun _ -> Atomic.set t.stopping true) in
    (try Sys.set_signal Sys.sigterm stop with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigint stop with Invalid_argument _ -> ())
  end;
  (match ready with
  | Some f -> f { ctl_stopping = t.stopping }
  | None -> ());
  let readers = ref [] in
  while not (Atomic.get t.stopping) do
    (* short select timeout = how fast a SIGTERM is noticed *)
    match Unix.select [ sock ] [] [] 0.2 with
    | [ _ ], _, _ -> begin
      match Unix.accept sock with
      | fd, _ ->
        Mutex.lock t.lock;
        t.client_seq <- t.client_seq + 1;
        let cl =
          {
            c_fd = fd;
            c_oc = Unix.out_channel_of_descr (Unix.dup fd);
            c_key = t.client_seq;
            c_lock = Mutex.create ();
            c_done = Condition.create ();
            c_pending = 0;
            c_id = 0;
          }
        in
        t.clients <- cl :: t.clients;
        Mutex.unlock t.lock;
        readers := Thread.create (fun () -> reader t cl) () :: !readers
      | exception Unix.Unix_error ((EINTR | ECONNABORTED | EAGAIN), _, _) ->
        ()
    end
    | _ -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done;
  (* graceful drain: stop accepting, unblock idle readers, answer
     everything already accepted, only then tear the pool down *)
  (try Unix.close sock with Unix.Unix_error _ -> ());
  (match cfg.d_listen with
  | Unix_socket path -> (
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  let live = Mutex.protect t.lock (fun () -> t.clients) in
  List.iter
    (fun cl ->
      try Unix.shutdown cl.c_fd Unix.SHUTDOWN_RECEIVE
      with Unix.Unix_error _ -> ())
    live;
  List.iter Thread.join !readers;
  Pool.drain (feeder_exn t);
  0

(* ------------------------------------------------------------------ *)
(* client side                                                        *)

let connect = function
  | Unix_socket path ->
    let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect s (Unix.ADDR_UNIX path);
    s
  | Tcp port ->
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    s
