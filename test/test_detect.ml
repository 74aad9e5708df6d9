(* Nameable-family detection (the canned strategy's gate): a golden
   corpus of family matches recorded from the reference-building
   detector, the static-graph shortcut the mapping context takes, and
   an allocation bound on a 30 000-task graph that no family matches. *)

open Oregami
module Analyze = Larcs.Analyze
module Ugraph = Graph.Ugraph
module Digraph = Graph.Digraph

(* "none", or "NAME DIMS RELABEL" with DIMS "RxC" or "-" and RELABEL
   "identity" or the MD5 of the comma-joined relabeling *)
let show = function
  | None -> "none"
  | Some m ->
    let r = m.Analyze.relabel in
    let relabel =
      if Array.for_all Fun.id (Array.mapi ( = ) r) then "identity"
      else
        Digest.to_hex
          (Digest.string (String.concat "," (Array.to_list (Array.map string_of_int r))))
    in
    let dims =
      match m.Analyze.fam_dims with
      | None -> "-"
      | Some ds -> String.concat "x" (List.map string_of_int ds)
    in
    Printf.sprintf "%s %s %s" m.Analyze.fam_name dims relabel

(* "PROGRAM k=v ..." -> the built-in program's task graph, the given
   bindings over its defaults *)
let program_graph key =
  match String.split_on_char ' ' key with
  | [] -> assert false
  | prog :: kvs ->
    let bindings =
      List.map
        (fun kv ->
          match String.split_on_char '=' kv with
          | [ k; v ] -> (k, int_of_string v)
          | _ -> Alcotest.failf "bad binding %S" kv)
        kvs
    in
    let source, defaults = Result.get_ok (Service.load_program prog) in
    let bindings =
      bindings @ List.filter (fun (k, _) -> not (List.mem_assoc k bindings)) defaults
    in
    match Larcs.Compile.compile_source ~bindings source with
    | Ok c -> c.Larcs.Compile.graph
    | Error e -> Alcotest.failf "%s: %s" key e

(* a reference family's edges under the relabeling i -> (7i + 5) mod n
   (7 is coprime to every size used) *)
let permuted_graph spec =
  let g = Topology.graph (Topology.make (Result.get_ok (Topology.parse spec))) in
  let n = Ugraph.node_count g in
  let p i = ((7 * i) + 5) mod n in
  let d = Digraph.create n in
  List.iter (fun (u, v, _) -> Digraph.add_edge d (p u) (p v)) (Ugraph.edges g);
  Taskgraph.make_exn ~name:"permuted" ~n ~comm_phases:[ ("c", d) ] ~exec_phases:[]
    ~expr:(Phase_expr.Comm "c") ()

(* the built-in programs at the parameters the serve-larcs benchmark
   requests them with, then synthetic graphs either side of the 64-task
   isomorphism cap and at large-tier size, then relabelled reference
   families; recorded from the detector that built a reference topology
   for every candidate *)
let golden =
  [
    ("nbody", "none");
    ("nbody n=31 s=2", "none");
    (* tori 3x21 and 7x9 pass the counts and are rejected *)
    ("nbody n=63 s=2", "none");
    ("matmul n=4", "hypercube - 26434d976b030f4942bb4e1b5b672146");
    (* torus 4x16 passes the counts; 8x8 wins *)
    ("matmul n=8", "torus 8x8 identity");
    ("matmul n=6", "torus 6x6 identity");
    ("fft", "hypercube - identity");
    ("fft n=32", "none");
    ("topsort l=4 w=16", "none");
    ("topsort l=8 w=8", "none");
    ("topsort", "none");
    ("divconq", "binomial - identity");
    ("divconq n=8", "binomial - identity");
    ("annealing n=8 s=2", "mesh 8x8 identity");
    ("annealing n=4 s=4", "mesh 4x4 identity");
    ("jacobi", "mesh 8x8 identity");
    ("jacobi n=8 t=2", "mesh 8x8 identity");
    ("jacobi n=6 t=3", "mesh 6x6 identity");
    ("jacobi n=16 t=2", "mesh 16x16 identity");
    ("sor n=8 t=2", "mesh 8x8 identity");
    ("sor", "mesh 6x6 identity");
    ("voting", "none");
    ("voting n=16", "none");
    ("spawned d=3", "bintree - identity");
    ("spawned", "bintree - identity");
    ("matmul3d n=3", "none");
    ("matmul3d", "none");
    ("matmul3d n=4", "none");
    ("synth:grid:16", "mesh 4x4 identity");
    ("synth:grid:63", "mesh 7x9 identity");
    ("synth:grid:64", "mesh 8x8 identity");
    ("synth:grid:65", "none");
    ("synth:grid:1024", "mesh 32x32 identity");
    ("synth:grid:30000", "none");
    ("synth:ring:16", "none");
    ("synth:ring:63", "none");
    ("synth:ring:64", "none");
    ("synth:ring:65", "none");
    ("synth:ring:1024", "none");
    ("synth:ring:30000", "none");
    ("synth:tree:16", "none");
    ("synth:tree:63", "bintree - identity");
    ("synth:tree:64", "none");
    ("synth:tree:65", "none");
    ("synth:tree:1024", "none");
    ("synth:tree:30000", "none");
    ("synth:rmat:16", "none");
    ("synth:rmat:63", "none");
    ("synth:rmat:64", "none");
    ("synth:rmat:65", "none");
    ("synth:rmat:1024", "none");
    ("synth:rmat:30000", "none");
    (* a perfect 200x200 mesh, found without building one *)
    ("synth:grid:40000", "mesh 200x200 identity");
    ("permuted mesh:4x5", "mesh 4x5 8ba508ac67501af05de49aea9cbb3de5");
    ("permuted mesh:9x9", "none");
    ("permuted torus:4x5", "torus 4x5 2014837300b14e498fe5f9137a37c9b5");
    ("permuted torus:3x3", "torus 3x3 842a6dffdb24ca46b61bb45a09ae6108");
    ("permuted hypercube:3", "hypercube - 526cddc98d3c5bd870609749dc876f85");
    ("permuted hypercube:6", "hypercube - 8aecd20f450d277fa9ec2868629c7f8c");
    ("permuted binomial:4", "binomial - 4e4b8042c41cb11cddd784727b8a62bb");
    ("permuted bintree:3", "bintree - 7f7febaec3098595ee2c34c7e2c12d96");
    ("permuted bintree:6", "none");
    ("permuted ring:9", "ring - 944c0e3a730b2a495e52ca1eaca9418e");
    ("permuted line:10", "line - b9903f4b91dbeb6e4eaac1a113e5a9a6");
  ]

let graph_of key =
  if Synth.is_spec key then Result.get_ok (Synth.build key)
  else
    match String.split_on_char ' ' key with
    | [ "permuted"; spec ] -> permuted_graph spec
    | _ -> program_graph key

(* both entry points agree with the record: a fresh unit graph, and the
   weighted static graph the mapping context hands over *)
let test_golden () =
  List.iter
    (fun (key, want) ->
      let tg = graph_of key in
      Alcotest.(check string) key want (show (Analyze.detect_family_match tg));
      Alcotest.(check string)
        (key ^ " (static)")
        want
        (show (Analyze.detect_family_match ~static:(Taskgraph.static_graph tg) tg)))
    golden

(* a phase the expression never runs is missing from the static graph,
   so detection must not read the static graph then: the ring with
   unused chords is no ring *)
let test_unrun_phase () =
  let n = 12 in
  let ring = Digraph.create n and chords = Digraph.create n in
  for i = 0 to n - 1 do
    Digraph.add_edge ring i ((i + 1) mod n);
    Digraph.add_edge chords i ((i + (n / 2)) mod n)
  done;
  let tg =
    Taskgraph.make_exn ~name:"unrun" ~n
      ~comm_phases:[ ("ring", ring); ("chords", chords) ]
      ~exec_phases:[]
      ~expr:(Phase_expr.Seq (Phase_expr.Comm "ring", Phase_expr.Repeat (Phase_expr.Comm "chords", 0)))
      ()
  in
  Alcotest.(check bool) "static graph lacks the chords" false (Taskgraph.static_has_unit_edges tg);
  Alcotest.(check string) "unit graph" "none" (show (Analyze.detect_family_match tg));
  Alcotest.(check string)
    "static graph offered"
    "none"
    (show (Analyze.detect_family_match ~static:(Taskgraph.static_graph tg) tg))

(* the mapping context detects once and the analysis reports that match *)
let test_ctx_shares_match () =
  let c = Workloads.compile_exn (Workloads.jacobi ~n:8 ~iters:2) in
  let ctx = Ctx.of_compiled c (Topology.make (Topology.Mesh (4, 4))) in
  Alcotest.(check string) "family" "mesh 8x8 identity" (show (Ctx.family ctx));
  match Ctx.analysis ctx with
  | None -> Alcotest.fail "no analysis for a compiled program"
  | Some a ->
    Alcotest.(check (option string)) "analysis" (Some "mesh") a.Analyze.detected_family

(* a truncated 173x174 grid: no factorization gets past the counts, so
   no reference topology is built.  Allocation is deterministic; the
   detector that built one reference per factorization allocated about
   1 GB here. *)
let test_allocation_bound () =
  let tg = Result.get_ok (Synth.build "synth:grid:30000") in
  let before = Gc.allocated_bytes () in
  let m = Analyze.detect_family_match tg in
  let mb = (Gc.allocated_bytes () -. before) /. 1e6 in
  Alcotest.(check string) "no family" "none" (show m);
  if mb >= 100.0 then Alcotest.failf "detection allocated %.0f MB (bound 100 MB)" mb

let () =
  Alcotest.run "detect"
    [
      ( "family",
        [
          Alcotest.test_case "golden corpus" `Quick test_golden;
          Alcotest.test_case "phase that never runs" `Quick test_unrun_phase;
          Alcotest.test_case "context shares one match" `Quick test_ctx_shares_match;
          Alcotest.test_case "allocation bound on grid 30000" `Quick test_allocation_bound;
        ] );
    ]
