(* One benchmark run: `bench --workload NAME --seed N --seconds S
   --trace 0|1`.  Progress and failures go to stderr; the last line of
   stdout is the JSON result.  Exit 0 when every check passed, 1 when
   a check failed, 2 on a usage error. *)

open Common

let workloads =
  [
    ("serve-larcs", Serve_larcs.run);
    ("flat-irregular", Mapping_tier.run Mapping_tier.flat_irregular);
    ("large-tier", Mapping_tier.run Mapping_tier.large_tier);
    ("cluster-churn", Cluster_churn.run);
  ]

let usage = "bench --workload NAME --seed N --seconds S --trace 0|1 [--oregami PATH] [--out DIR]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let oregami = ref "_build/default/bin/main.exe" and out_dir = ref "perfbench/_out" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
      ("--oregami", Arg.Set_string oregami, "PATH the oregami CLI (serve-larcs starts its daemon)");
      ("--out", Arg.Set_string out_dir, "DIR run outputs (trace files, daemon socket)");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ Arg.usage_string spec usage);
    exit 2
  | Some run ->
    if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline ("perfbench: bad --seconds or --trace\n" ^ Arg.usage_string spec usage);
      exit 2
    end;
    (try Unix.mkdir !out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let args =
      { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1; oregami = !oregami; out_dir = !out_dir }
    in
    Perfbench.Spans.enabled := args.trace;
    let result = run args in
    if args.trace then
      Perfbench.Spans.write_chrome
        (Filename.concat args.out_dir (Printf.sprintf "trace-%s-%d.json" args.workload args.seed));
    log "%s seed %d: %d operations, %.3f s measured, %.3f s since start" args.workload args.seed
      result.attempted result.measured_s (Clock.now () -. process_start);
    print_result ~trace:args.trace result;
    exit (if result.correct then 0 else 1)
