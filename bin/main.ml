(* The oregami command line: parse / dump / analyze / map / render /
   simulate LaRCS programs against network topologies. *)

open Cmdliner
open Oregami

let die ?(code = 1) m =
  Printf.eprintf "oregami: %s\n" m;
  exit code

let or_die = function Ok v -> v | Error m -> die m

(* common args *)
let input_arg =
  let doc = "LaRCS source file, built-in workload name (see $(b,workloads)), or \
             $(b,synth:FAMILY:N[:SEED]) spec." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

let params_arg =
  let doc = "Bind an algorithm parameter, e.g. $(b,-p n=15).  Repeatable, each name once." in
  Arg.(value & opt_all string [] & info [ "p"; "param" ] ~docv:"NAME=VALUE" ~doc)

let topo_arg =
  let doc =
    Printf.sprintf
      "Target topology (%s).  Append $(b,:classes=CLASS@IDS[/CLASS@IDS...]) to \
       tag processors with capability classes, e.g. \
       $(b,torus:8x8:classes=mem@0-7/io@56-63)."
      (String.concat ", " Topology.known_kinds)
  in
  Arg.(required & opt (some string) None & info [ "t"; "topology" ] ~docv:"TOPO" ~doc)

let target_topology topo = or_die (Topology.of_string topo)

(* the mapping options: one repeatable flag per entry of the
   request-option table, whose values reach the same setter as a
   request line's KEY=VALUE.  Errors wait until the command asks for
   the options, so they keep their place among its other checks. *)
let options_arg keys =
  let flag (k : Service.key) =
    let doc =
      if k.Service.k_list then k.Service.k_doc ^ "  Repeatable; the values join with commas."
      else k.Service.k_doc
    in
    Arg.(value & opt_all string [] & info [ k.Service.k_flag ] ~docv:k.Service.k_docv ~doc)
  in
  Term.(
    const (Service.apply_flags Driver.default_options)
    $ List.fold_right
        (fun k rest -> const (fun vs rest -> (k, vs) :: rest) $ flag k $ rest)
        keys (const []))

(* render, routes, simulate and aggregate take only the routing key *)
let routing_key = options_arg (List.filter (fun k -> k.Service.k_name = "routing") Service.keys)

let route_jobs_arg =
  let doc =
    "Domains used to route independent communication phases concurrently \
     under coarse routing (flat MM-Route ignores it).  Output is \
     byte-identical across widths."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* fault injection *)
let kill_procs_arg =
  let doc =
    "Kill these processors (comma-separated ids).  With $(b,--fault-seed) the \
     value is instead a $(i,count) of randomly drawn dead processors."
  in
  Arg.(value & opt (some string) None & info [ "kill-procs" ] ~docv:"IDS|N" ~doc)

let kill_links_arg =
  let doc =
    "Kill these links (comma-separated ids, see $(b,topo) for the numbering).  \
     With $(b,--fault-seed) the value is instead a $(i,count) of randomly drawn \
     dead links."
  in
  Arg.(value & opt (some string) None & info [ "kill-links" ] ~docv:"IDS|N" ~doc)

let fault_seed_arg =
  let doc =
    "Draw the $(b,--kill-procs)/$(b,--kill-links) faults at random from this \
     seed instead of reading them as explicit ids."
  in
  Arg.(value & opt (some int) None & info [ "fault-seed" ] ~docv:"SEED" ~doc)

let fault_set ~kill_procs ~kill_links ~fault_seed topology =
  match (kill_procs, kill_links, fault_seed) with
  | None, None, None -> Faults.none
  | _, _, Some seed ->
    let count flag = function
      | None -> 0
      | Some s -> begin
        match int_of_string_opt s with
        | Some n when n >= 0 -> n
        | Some _ | None ->
          die (Printf.sprintf "with --fault-seed, %s wants a count, got %S" flag s)
      end
    in
    or_die
      (Faults.random (Prelude.Rng.create seed)
         ~procs:(count "--kill-procs" kill_procs)
         ~links:(count "--kill-links" kill_links)
         topology)
  | _, _, None ->
    let ids = function None -> [] | Some s -> or_die (Faults.parse_ids s) in
    or_die (Faults.make ~procs:(ids kill_procs) ~links:(ids kill_links) topology)

(* degrade the target topology, or_die-ing on disconnection (with the
   surviving partitions named) *)
let degraded_target topology faults =
  if Faults.is_empty faults then (topology, faults)
  else begin
    let view = or_die (Faults.degrade topology faults) in
    Printf.printf "injected faults: %s\n\n" (Faults.describe faults);
    (view.Faults.topo, faults)
  end

(* -p NAME=VALUE in the request line's key grammar: a repeated name is a
   duplicate key.  Latest first, the order dump has always shown. *)
let bindings params =
  or_die
    (Service.fold_keys
       (fun acc k v -> Result.map (fun b -> b :: acc) (Service.binding k v))
       [] params)

(* a missing file or a malformed synth: spec names no program at all,
   a usage error (exit 2); a program that does not compile exits 1 *)
let program ~input ~params =
  let source = match Service.source input with Ok s -> s | Error m -> die ~code:2 m in
  or_die (Service.build ~bindings:(bindings params) source)

let compile ~input ~params =
  match (program ~input ~params).Service.compiled with
  | Some c -> c
  | None -> die ~code:2 (input ^ ": a synthetic task graph has no LaRCS program")

let mapping_of ~input ~params ~topo ~options =
  let program = program ~input ~params in
  let topology = target_topology topo in
  let options = or_die options in
  let ctx = Service.context ~options program topology in
  (or_die (Result.map fst (Driver.run ctx)), options)

let fallback_arg =
  let doc =
    "Place a cheap baseline mapping instead of erroring when every strategy \
     declines.  Implied by $(b,--fuel) / $(b,--deadline-ms)."
  in
  Arg.(value & flag & info [ "fallback" ] ~doc)

(* subcommands *)
let parse_cmd =
  let run input =
    let source, _ =
      match Service.load_program input with Ok v -> v | Error m -> die ~code:2 m
    in
    let p = or_die (Larcs.Parser.parse source) in
    print_string (Larcs.Pretty.program p)
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse a LaRCS program and echo its canonical form")
    Term.(const run $ input_arg)

let dump_cmd =
  let run input params =
    let compiled = compile ~input ~params in
    print_string (Larcs.Compile.dump compiled)
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:"Compile and dump the task-graph structures (the Fig 2c analogue)")
    Term.(const run $ input_arg $ params_arg)

let analyze_cmd =
  let run input params =
    let compiled = compile ~input ~params in
    let a = Larcs.Analyze.analyze compiled in
    Format.printf "%a@." Larcs.Analyze.pp a
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Run the regularity analyses (Cayley, affine, family)")
    Term.(const run $ input_arg $ params_arg)

let map_cmd =
  let run input params topo options jobs explain kill_procs kill_links
      fault_seed fallback =
    if jobs < 1 then die ~code:2 "--jobs must be at least 1";
    let topology = target_topology topo in
    let faults = fault_set ~kill_procs ~kill_links ~fault_seed topology in
    let topology, faults = degraded_target topology faults in
    let options = or_die options in
    let constraints = options.Driver.constraints in
    let options =
      { options with
        Driver.jobs;
        (* any budget implies the anytime contract: always answer *)
        Driver.fallback =
          fallback || options.Driver.fuel <> None || options.Driver.deadline_ms <> None;
      }
    in
    let ctx = Service.context ~options ~faults (program ~input ~params) topology in
    let stats = ctx.Ctx.stats in
    match Driver.run ctx with
    | Error e ->
      Printf.eprintf "oregami: %s\n" e;
      List.iter
        (fun (strategy, reason) ->
          Printf.eprintf "oregami:   %s: %s\n" strategy reason)
        (Stats.rejections stats);
      exit 1
    | Ok (m, _) ->
      Format.printf "%a@.@." Mapping.pp m;
      let degradation =
        match Stats.degradation stats with
        | Stats.Full -> None
        | d -> Some d
      in
      Metrics.print_summary ?degradation (Metrics.summary m);
      if explain then begin
        print_newline ();
        print_string (Stats.to_table stats);
        (* the DRC pass, by name: every placement rule the mapping was
           produced under, re-checked against the final assignment *)
        let compiled_cons =
          Mapper.Constraints.compile constraints m.Mapping.tg topology
        in
        if Mapper.Constraints.active compiled_cons then begin
          print_newline ();
          match Mapper.Constraints.drc compiled_cons (Mapping.assignment m) with
          | [] ->
            Printf.printf "validate-drc: clean (%s)\n"
              (let d = Mapper.Constraints.describe constraints in
               if d = "" then "program-declared requirements" else d)
          | violations ->
            Printf.printf "validate-drc: %d violation(s)\n" (List.length violations);
            List.iter
              (fun v ->
                Printf.printf "  %s\n" (Mapper.Constraints.violation_to_string v))
              violations
        end;
        print_newline ();
        print_endline (Stats.to_sexp stats)
      end
  in
  let explain_arg =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Print the pipeline statistics: strategies tried/rejected with \
                   reasons and timings, candidate scores, and pass counters, plus an \
                   s-expression dump.")
  in
  Cmd.v (Cmd.info "map" ~doc:"Map a program onto a topology and report METRICS")
    Term.(const run $ input_arg $ params_arg $ topo_arg $ options_arg Service.keys
          $ route_jobs_arg $ explain_arg $ kill_procs_arg $ kill_links_arg
          $ fault_seed_arg $ fallback_arg)

let render_cmd =
  let run input params topo options svg_path =
    let m, _ = mapping_of ~input ~params ~topo ~options in
    match svg_path with
    | Some path ->
      Svg.save path (Svg.mapping m);
      Printf.printf "wrote %s\n" path
    | None ->
      print_string (Render.mapping m);
      print_newline ();
      print_endline (Render.link_loads m)
  in
  let svg_arg =
    Arg.(value & opt (some string) None
         & info [ "svg" ] ~docv:"FILE" ~doc:"Write an SVG rendering to FILE instead of ASCII.")
  in
  Cmd.v (Cmd.info "render" ~doc:"Render the mapping and link loads (ASCII or SVG)")
    Term.(const run $ input_arg $ params_arg $ topo_arg $ routing_key $ svg_arg)

let routes_cmd =
  let run input params topo options phase timeline =
    let m, _ = mapping_of ~input ~params ~topo ~options in
    print_endline (Render.phase_edges m phase);
    if timeline then begin
      print_newline ();
      print_endline (Render.timeline m phase)
    end
  in
  let phase_arg =
    Arg.(required & opt (some string) None & info [ "phase" ] ~docv:"PHASE" ~doc:"Communication phase to display.")
  in
  let timeline_arg =
    Arg.(value & flag & info [ "timeline" ] ~doc:"Also print the per-channel busy timeline.")
  in
  Cmd.v (Cmd.info "routes" ~doc:"Show the routed edges of one communication phase")
    Term.(const run $ input_arg $ params_arg $ topo_arg $ routing_key $ phase_arg
          $ timeline_arg)

let simulate_cmd =
  let run input params topo options fault_at kill_procs kill_links fault_seed =
    let m, options = mapping_of ~input ~params ~topo ~options in
    match fault_at with
    | None ->
      let r = Netsim.run m in
      Prelude.Tab.print
        ~header:[ "metric"; "value" ]
        [
          [ "simulated makespan"; string_of_int r.Netsim.makespan ];
          [ "communication time"; string_of_int r.Netsim.comm_time ];
          [ "execution time"; string_of_int r.Netsim.exec_time ];
          [ "trace slots"; string_of_int (List.length r.Netsim.slot_times) ];
          [ "deepest channel queue"; string_of_int r.Netsim.max_queue ];
        ]
    | Some at_slot ->
      let faults = fault_set ~kill_procs ~kill_links ~fault_seed m.Mapping.topo in
      let event =
        { Netsim.at_slot; kill_procs = faults.Faults.procs; kill_links = faults.Faults.links }
      in
      let r = or_die (Netsim.run_with_fault ~options m event) in
      Printf.printf "fault at slot %d: %s\n\n" at_slot (Faults.describe faults);
      Prelude.Tab.print
        ~header:[ "metric"; "value" ]
        [
          [ "fault-free makespan"; string_of_int r.Netsim.rv_fault_free.Netsim.makespan ];
          [ "pre-fault time"; string_of_int r.Netsim.rv_pre_time ];
          [ "evacuation (migration)"; string_of_int r.Netsim.rv_migration_time ];
          [ "post-repair time"; string_of_int r.Netsim.rv_post_time ];
          [ "makespan with recovery"; string_of_int r.Netsim.rv_makespan ];
          [ "recovery overhead"; string_of_int r.Netsim.rv_delta ];
          [ "tasks evacuated"; string_of_int (Repair.moved r.Netsim.rv_repair) ];
        ]
  in
  let fault_at_arg =
    Arg.(value & opt (some int) None
         & info [ "fault-at" ] ~docv:"SLOT"
             ~doc:"Inject the $(b,--kill-procs)/$(b,--kill-links) faults after \
                   this trace slot, repair the mapping, and report the recovery \
                   cost against the fault-free run.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the store-and-forward network simulation of the mapping")
    Term.(const run $ input_arg $ params_arg $ topo_arg $ routing_key $ fault_at_arg
          $ kill_procs_arg $ kill_links_arg $ fault_seed_arg)

let aggregate_cmd =
  let run input params topo options phase =
    let m, _ = mapping_of ~input ~params ~topo ~options in
    match Oregami.Mapper.Aggregate.replan_phase m ~phase with
    | Error e -> or_die (Error e)
    | Ok m2 ->
      Prelude.Tab.print
        ~header:[ "mapping"; "hot link volume"; "simulated makespan" ]
        [
          [
            "naive all-to-root";
            string_of_int (Oregami.Mapper.Aggregate.hot_link_volume m phase);
            string_of_int (Netsim.run m).Netsim.makespan;
          ];
          [
            "spanning-tree reduction";
            string_of_int (Oregami.Mapper.Aggregate.hot_link_volume m2 phase);
            string_of_int (Netsim.run m2).Netsim.makespan;
          ];
        ];
      print_newline ();
      print_endline (Render.phase_edges m2 phase)
  in
  let phase_arg =
    Arg.(required & opt (some string) None & info [ "phase" ] ~docv:"PHASE" ~doc:"Aggregation phase to re-plan.")
  in
  Cmd.v
    (Cmd.info "aggregate"
       ~doc:"Re-plan an all-to-root phase as a spanning-tree reduction (paper section 6)")
    Term.(const run $ input_arg $ params_arg $ topo_arg $ routing_key $ phase_arg)

let remap_cmd =
  let run input params topo =
    let program = program ~input ~params in
    let topology = target_topology topo in
    match Remap.plan program.Service.graph topology with
    | Error e -> or_die (Error e)
    | Ok p ->
      Prelude.Tab.print
        ~header:[ "plan"; "makespan" ]
        ([
           [ "single static mapping"; string_of_int p.Remap.static_makespan ];
         ]
        @ List.mapi
            (fun i (r, m) ->
              [
                Printf.sprintf "regime %d [%s] via %s" (i + 1)
                  (String.concat "," r.Remap.rg_comms)
                  m.Mapping.strategy;
                string_of_int (List.nth p.Remap.regime_makespans i);
              ])
            p.Remap.regime_mappings
        @ [
            [ "migration"; string_of_int p.Remap.migration_time ];
            [ "remapped total"; string_of_int p.Remap.remap_makespan ];
          ]);
      Printf.printf "
remapping %s
"
        (if p.Remap.worthwhile then "pays off" else "does not pay off")
  in
  Cmd.v
    (Cmd.info "remap"
       ~doc:"Compare one static mapping against per-regime mappings with migration")
    Term.(const run $ input_arg $ params_arg $ topo_arg)

let repair_cmd =
  let run input params topo kill_procs kill_links fault_seed options =
    let program = program ~input ~params in
    let topology = target_topology topo in
    let faults = fault_set ~kill_procs ~kill_links ~fault_seed topology in
    if Faults.is_empty faults then
      die "nothing to repair (give --kill-procs and/or --kill-links)";
    let options = or_die options in
    let r =
      or_die
        (Remap.recover ~options ?compiled:program.Service.compiled program.Service.graph
           topology faults)
    in
    Printf.printf "faults: %s\n\n" (Faults.describe faults);
    Prelude.Tab.print
      ~header:[ "plan"; "tasks moved"; "migration"; "makespan" ]
      [
        [
          Printf.sprintf "before faults (%s)" r.Remap.rc_base.Mapping.strategy;
          "-"; "-";
          string_of_int r.Remap.rc_base_makespan;
        ];
        [
          "minimum-disruption repair";
          string_of_int r.Remap.rc_repair_bill.Remap.b_moved;
          string_of_int r.Remap.rc_repair_bill.Remap.b_migration;
          string_of_int r.Remap.rc_repair_bill.Remap.b_makespan;
        ];
        [
          Printf.sprintf "from-scratch remap (%s)" r.Remap.rc_remap.Mapping.strategy;
          string_of_int r.Remap.rc_remap_bill.Remap.b_moved;
          string_of_int r.Remap.rc_remap_bill.Remap.b_migration;
          string_of_int r.Remap.rc_remap_bill.Remap.b_makespan;
        ];
      ];
    Printf.printf "\n%s\n"
      (if r.Remap.rc_repair_wins then
         "repair wins: migration + steady state beats the from-scratch remap"
       else "full remap wins: its better steady state repays the migration");
    Printf.printf
      "\nphase wall-clock: base %.3f ms, repair %.3f ms, remap %.3f ms\n"
      r.Remap.rc_base_ms r.Remap.rc_repair_ms r.Remap.rc_remap_ms
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:"Recover an existing mapping from processor/link failures and compare \
             minimum-disruption repair against a from-scratch remap")
    Term.(const run $ input_arg $ params_arg $ topo_arg $ kill_procs_arg
          $ kill_links_arg $ fault_seed_arg $ options_arg Service.constraint_keys)

let systolic_cmd =
  let run spec max_pes =
    let parse_spec s =
      match String.split_on_char ':' s with
      | [ "matmul"; n ] -> begin
        match int_of_string_opt n with
        | Some n when n >= 2 -> Ok (Systolic.Recurrence.matmul n)
        | Some _ | None -> Error "matmul needs a size >= 2"
      end
      | [ "convolution"; dims ] | [ "fir"; dims ] -> begin
        match String.split_on_char 'x' dims with
        | [ a; b ] -> begin
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some n, Some k when n >= 1 && k >= 1 ->
            Ok
              (if String.length s >= 3 && String.sub s 0 3 = "fir" then
                 Systolic.Recurrence.fir n k
               else Systolic.Recurrence.convolution n k)
          | _, _ -> Error "bad dimensions (want NxK)"
        end
        | _ -> Error "bad dimensions (want NxK)"
      end
      | _ -> Error "unknown recurrence (matmul:N, convolution:NxK, fir:NxK)"
    in
    let r = or_die (parse_spec spec) in
    match Systolic.Synthesis.synthesize r with
    | Error e -> or_die (Error e)
    | Ok d ->
      print_string (Systolic.Synthesis.describe r d);
      (match Systolic.Synthesis.verify r d with
      | Ok () -> print_endline "  verified: injective space-time map, causal dependences"
      | Error e -> Printf.printf "  VERIFICATION FAILED: %s\n" e);
      match max_pes with
      | None -> ()
      | Some max_pes -> begin
        match Systolic.Partition.partition r d ~max_pes with
        | Error e -> or_die (Error e)
        | Ok p ->
          Printf.printf
            "\nLSGP partition onto %d PEs: blocks %s, slowdown %d, latency %d\n"
            p.Systolic.Partition.physical_count
            (String.concat "x"
               (List.map string_of_int (Array.to_list p.Systolic.Partition.block)))
            p.Systolic.Partition.slowdown p.Systolic.Partition.latency;
          match Systolic.Partition.check r d p with
          | Ok () -> print_endline "partition checked"
          | Error e -> Printf.printf "PARTITION CHECK FAILED: %s\n" e
      end
  in
  let spec_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"RECURRENCE" ~doc:"matmul:N, convolution:NxK, or fir:NxK.")
  in
  let pes_arg =
    Arg.(value & opt (some int) None
         & info [ "max-pes" ] ~docv:"P" ~doc:"Partition the array onto at most P processors (LSGP).")
  in
  Cmd.v
    (Cmd.info "systolic"
       ~doc:"Synthesize (and optionally partition) a systolic array for a recurrence")
    Term.(const run $ spec_arg $ pes_arg)

let topo_cmd =
  let run topo = print_string (Render.topology (target_topology topo)) in
  let arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"TOPO" ~doc:"Topology spec.") in
  Cmd.v (Cmd.info "topo" ~doc:"Describe a network topology") Term.(const run $ arg)

(* batch mapping service: one request per line in, one result line out *)
let serve_batch file sexp jobs =
  if jobs < 1 then die ~code:2 "--jobs must be at least 1";
  let format = if sexp then Service.Sexp else Service.Tsv in
  let ic =
    match file with
    | None | Some "-" -> stdin
    | Some f -> ( try open_in f with Sys_error m -> die ~code:2 m)
  in
  let code = Service.serve ~format ~jobs ic stdout in
  if ic != stdin then close_in ic;
  exit code

let sexp_arg =
  Arg.(value & flag
       & info [ "sexp" ]
           ~doc:"Emit one s-expression per request instead of the TSV line.")

let jobs_arg =
  Arg.(value
       & opt int (Prelude.Pool.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Serve the batch on $(docv) domains sharing compiled-program \
                 and topology caches (results still come out in request \
                 order, byte-identical to $(b,--jobs 1) for fixed seeds, \
                 wall-clock aside).  $(b,--jobs 1) streams request by \
                 request; every width keeps the same bounded caches.  \
                 Defaults to the number of available cores.")

let serve_cmd =
  let run sexp jobs = serve_batch None sexp jobs in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Read mapping requests from stdin (PROGRAM TOPOLOGY [key=value \
             ...] per line) and answer each with one result line; exit 1 if \
             any request failed")
    Term.(const run $ sexp_arg $ jobs_arg)

let batch_cmd =
  let run file sexp jobs = serve_batch (Some file) sexp jobs in
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE"
             ~doc:"Request file, one request per line ($(b,-) for stdin).")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Run a file of mapping requests through the batch service \
             (identical to $(b,serve) reading the file)")
    Term.(const run $ file_arg $ sexp_arg $ jobs_arg)

(* the long-lived daemon and its line client *)
let listen_of ~socket ~port =
  match (socket, port) with
  | Some path, None -> Daemon.Unix_socket path
  | None, Some p -> Daemon.Tcp p
  | _ -> die ~code:2 "give exactly one of --socket PATH or --port N"

let socket_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Listen on (or dial) a Unix-domain socket at $(docv).")

let port_arg =
  Arg.(value & opt (some int) None
       & info [ "port" ] ~docv:"N"
           ~doc:"Listen on (or dial) loopback TCP port $(docv).")

let daemon_cmd =
  let run socket port jobs queue_bound max_inflight fuel_cap deadline_cap
      timeout cache_bound sexp =
    if jobs < 1 then die ~code:2 "--jobs must be at least 1";
    if queue_bound < 0 then die ~code:2 "--queue-bound must be >= 0";
    if max_inflight < 1 then die ~code:2 "--max-inflight must be >= 1";
    if cache_bound < 0 then die ~code:2 "--cache-bound must be >= 0";
    let cfg =
      {
        (Daemon.default_config (listen_of ~socket ~port)) with
        Daemon.d_jobs = jobs;
        Daemon.d_queue_bound = queue_bound;
        Daemon.d_max_inflight = max_inflight;
        Daemon.d_fuel_cap = fuel_cap;
        Daemon.d_deadline_cap_ms = deadline_cap;
        Daemon.d_timeout_ms = timeout;
        Daemon.d_cache_bound = (if cache_bound = 0 then None else Some cache_bound);
        Daemon.d_format = (if sexp then Service.Sexp else Service.Tsv);
      }
    in
    match Daemon.run cfg with
    | code -> exit code
    | exception Unix.Unix_error (e, fn, arg) ->
      die (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e))
  in
  let queue_bound_arg =
    Arg.(value & opt int 64
         & info [ "queue-bound" ] ~docv:"N"
             ~doc:"Admission queue bound: requests beyond $(docv) waiting \
                   for a worker are shed with a named $(b,overload:) error \
                   line.  $(b,0) sheds everything a worker cannot take \
                   immediately.")
  in
  let max_inflight_arg =
    Arg.(value & opt int 8
         & info [ "max-inflight" ] ~docv:"N"
             ~doc:"Per-client cap on unanswered requests; excess requests \
                   are shed by name.")
  in
  let fuel_cap_arg =
    Arg.(value & opt (some int) None
         & info [ "fuel-cap" ] ~docv:"UNITS"
             ~doc:"Per-request fuel quota: requests without $(b,fuel=) are \
                   clamped to $(docv), explicit over-asks are rejected with \
                   a $(b,quota:) error line.")
  in
  let deadline_cap_arg =
    Arg.(value & opt (some float) None
         & info [ "deadline-cap-ms" ] ~docv:"MS"
             ~doc:"Per-request deadline quota, enforced like \
                   $(b,--fuel-cap).")
  in
  let timeout_arg =
    Arg.(value & opt (some float) None
         & info [ "timeout-ms" ] ~docv:"MS"
             ~doc:"Per-request wall-clock timeout measured from admission: \
                   queueing time shrinks the mapper's deadline budget, and \
                   a request whose timeout lapsed while queued is answered \
                   $(b,timeout:) without running.")
  in
  let cache_bound_arg =
    Arg.(value & opt int Service.cache_bound
         & info [ "cache-bound" ] ~docv:"N"
             ~doc:"LRU bound on each shared artifact cache (compiled \
                   programs, topologies).  $(b,0) means unbounded.")
  in
  Cmd.v
    (Cmd.info "daemon"
       ~doc:"Serve mapping requests forever on a Unix or TCP socket, with \
             bounded admission (load-shedding by name), per-request quotas \
             and timeouts, LRU-bounded caches, a live $(b,stats) verb, and \
             graceful drain on SIGTERM")
    Term.(const run $ socket_arg $ port_arg $ jobs_arg $ queue_bound_arg
          $ max_inflight_arg $ fuel_cap_arg $ deadline_cap_arg $ timeout_arg
          $ cache_bound_arg $ sexp_arg)

let client_cmd =
  let run socket port =
    let listen = listen_of ~socket ~port in
    let fd =
      match Daemon.connect listen with
      | fd -> fd
      | exception Unix.Unix_error (e, fn, arg) ->
        die (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e))
    in
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr (Unix.dup fd) in
    (* answers arrive in completion order while we are still typing:
       pump them on their own thread so neither side can stall *)
    let pump =
      Thread.create
        (fun () ->
          try
            while true do
              print_endline (input_line ic);
              flush stdout
            done
          with End_of_file | Sys_error _ -> ())
        ()
    in
    (try
       while true do
         let line = input_line stdin in
         output_string oc line;
         output_char oc '\n';
         flush oc
       done
     with End_of_file -> ());
    (* half-close tells the daemon we are done asking; it answers
       everything pending, then closes, which ends the pump *)
    (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    Thread.join pump;
    close_out_noerr oc;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    exit 0
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Forward request lines from stdin to a running $(b,daemon) and \
             print each answer line (requests also work interactively; try \
             $(b,stats) or $(b,ping))")
    Term.(const run $ socket_arg $ port_arg)

let workloads_cmd =
  let run () =
    Prelude.Tab.print
      ~header:[ "name"; "tasks"; "description" ]
      (List.map
         (fun spec ->
           let tg = Workloads.task_graph_exn spec in
           [ spec.Workloads.w_name; string_of_int tg.Taskgraph.n; spec.Workloads.description ])
         (Workloads.all ()));
    print_newline ();
    Printf.printf
      "synthetic instances: synth:FAMILY:N[:SEED] (any size), families:\n";
    List.iter (fun (name, doc) -> Printf.printf "  %-6s %s\n" name doc)
      Synth.families
  in
  Cmd.v (Cmd.info "workloads" ~doc:"List the built-in workload programs")
    Term.(const run $ const ())

(* the online cluster: lease regions to a stream of jobs, survive chaos *)
let cluster_cmd =
  let run topo trace chaos explain queue_bound max_retries defrag =
    let machine = target_topology topo in
    let events =
      if Cluster.is_synth_trace trace then
        match Cluster.parse_synth_trace trace with
        | Ok (events, seed) -> Cluster.synth_trace ~events ~seed machine
        | Error e -> die ~code:2 e
      else or_die (Cluster.load_trace trace)
    in
    let chaos = match chaos with None -> [] | Some s -> or_die (Cluster.parse_chaos s) in
    if queue_bound < 1 then die ~code:2 "--queue-bound must be >= 1";
    if max_retries < 0 then die ~code:2 "--max-retries must be >= 0";
    if defrag <= 0.0 || defrag > 1.0 then
      die ~code:2 "--defrag-threshold must be in (0, 1]";
    let config =
      {
        Cluster.default_config with
        Cluster.cf_queue_bound = queue_bound;
        Cluster.cf_max_retries = max_retries;
        Cluster.cf_defrag_threshold = defrag;
      }
    in
    let explain_hook = if explain then Some print_endline else None in
    let r = or_die (Cluster.run ~config ?explain:explain_hook ~chaos machine events) in
    let open Cluster in
    Printf.printf "events %d: admitted %d, completed %d, cancelled %d, refused %d, shed %d\n"
      r.rp_events r.rp_admitted r.rp_completed r.rp_cancelled
      (List.length r.rp_refused) (List.length r.rp_shed);
    Printf.printf
      "healing: repairs %d, remaps %d, evictions %d, repacks %d (declined %d), \
       migration %d\n"
      r.rp_repairs r.rp_remaps r.rp_evictions r.rp_repacks r.rp_repacks_declined
      r.rp_migration_total;
    Printf.printf "chaos: applied %d, refused %d\n" r.rp_chaos_applied r.rp_chaos_refused;
    (match List.rev r.rp_samples with
    | last :: _ ->
      Printf.printf "final: utilization %.2f, fragmentation %.2f, running %d, free %d\n"
        last.s_utilization last.s_fragmentation last.s_running last.s_free
    | [] -> ());
    if r.rp_running <> [] then
      Printf.printf "running: %s\n" (String.concat " " r.rp_running);
    List.iter (fun (name, why) -> Printf.printf "refused %s: %s\n" name why) r.rp_refused;
    List.iter (fun name -> Printf.printf "shed %s\n" name) r.rp_shed;
    if r.rp_refused <> [] || r.rp_shed <> [] then exit 1
  in
  let trace_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"TRACE"
             ~doc:"Trace file (arrive/depart/kill/revive lines) or \
                   $(b,synth:EVENTS[:SEED]) for a generated arrival stream.")
  in
  let chaos_arg =
    Arg.(value & opt (some string) None
         & info [ "chaos" ] ~docv:"SPEC"
             ~doc:"Chaos schedule $(b,AT:ACTION[;AT:ACTION...]); actions \
                   $(b,kill-procs=IDS), $(b,kill-links=IDS), \
                   $(b,revive-procs=IDS), $(b,revive-links=IDS).  $(b,AT) is \
                   the 0-based trace event index the action fires before.")
  in
  let explain_arg =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Stream every admission/healing/re-pack decision as it is made.")
  in
  let queue_bound_arg =
    Arg.(value & opt int Cluster.default_config.Cluster.cf_queue_bound
         & info [ "queue-bound" ] ~docv:"N"
             ~doc:"Pending arrivals held before shedding (default 16).")
  in
  let max_retries_arg =
    Arg.(value & opt int Cluster.default_config.Cluster.cf_max_retries
         & info [ "max-retries" ] ~docv:"N"
             ~doc:"Placement retries per queued arrival (default 3).")
  in
  let defrag_arg =
    Arg.(value & opt float Cluster.default_config.Cluster.cf_defrag_threshold
         & info [ "defrag-threshold" ] ~docv:"F"
             ~doc:"Free-pool fragmentation above which a re-pack is priced \
                   (default 0.5).")
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"Run an online cluster lifecycle: lease processor regions to a \
             stream of arriving/departing jobs, inject chaos, heal by priced \
             repair-vs-remap, re-pack when fragmented; exit 1 if any job was \
             refused or shed")
    Term.(const run $ topo_arg $ trace_arg $ chaos_arg $ explain_arg
          $ queue_bound_arg $ max_retries_arg $ defrag_arg)

let default =
  Term.(ret (const (`Help (`Pager, None))))

let () =
  let info = Cmd.info "oregami" ~version:Oregami.version ~doc:"OREGAMI mapping tools" in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            parse_cmd; dump_cmd; analyze_cmd; map_cmd; render_cmd; routes_cmd;
            simulate_cmd; aggregate_cmd; remap_cmd; repair_cmd; serve_cmd;
            batch_cmd; daemon_cmd; client_cmd; cluster_cmd; systolic_cmd;
            topo_cmd; workloads_cmd;
          ]))
