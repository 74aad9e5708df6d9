(* Fuzzing the compile → pipeline → metrics chain, and the request
   surfaces in front of it.

   Two generators: well-formed random LaRCS programs (template-based:
   random 1-D node space, shift/ring/tree communication rules, random
   phase expressions), and byte-level mutations of those programs.
   Well-formed programs must compile and, under a small fuel budget
   with the fallback enabled, must map to a valid mapping without ever
   raising and without burning more than bounded fuel past the cap.
   Mutated programs may fail to compile, but the compiler must return
   [Error] rather than raise, and whenever it accepts the source the
   pipeline contract above must still hold.

   Request lines ({!Service.parse_request}) and cluster trace lines
   ({!Cluster.parse_trace_line}) are fuzzed with token mixes drawn from
   the request-option table, good values and bad, plus byte mutations
   of those lines.  No line may raise, every [Error] must name the key
   or token at fault, and the same options given as command-line flags
   ({!Service.apply_flags}) must get the same answer as the line. *)

open Oregami
module Rng = Prelude.Rng
module Budget = Mapper.Budget
module Isolate = Mapper.Isolate

let topo s = Topology.make (Result.get_ok (Topology.parse s))

let topologies =
  [| "hypercube:3"; "mesh:3x3"; "ring:6"; "torus:4x4"; "line:7"; "bintree:2" |]

(* --- generator: well-formed programs ------------------------------ *)

let comm_rule rng n i =
  let d = 1 + Rng.int rng 3 in
  let volume =
    if Rng.int rng 2 = 0 then "" else Printf.sprintf " volume %d" (1 + Rng.int rng 4)
  in
  let body =
    match Rng.int rng 4 with
    | 0 -> Printf.sprintf "t i -> t ((i+%d) mod n)%s;" d volume
    | 1 -> Printf.sprintf "t i -> t (i+%d)%s when i < n-%d;" d volume d
    | 2 -> Printf.sprintf "t i -> t (i-%d)%s when i > %d;" d volume (d - 1)
    | _ -> Printf.sprintf "t i -> t ((i - 1) / 2)%s when i > 0;" volume
  in
  ignore n;
  Printf.sprintf "comphase c%d { %s }" i body

let phase_expr rng comms execs =
  let exec () = List.nth execs (Rng.int rng (List.length execs)) in
  let k = 1 + Rng.int rng 3 in
  match Rng.int rng 3 with
  | 0 -> Printf.sprintf "(%s; %s)^%d" (String.concat " || " comms) (exec ()) k
  | 1 -> Printf.sprintf "(%s; %s)^%d" (String.concat "; " comms) (exec ()) k
  | _ ->
    String.concat "; "
      (List.map (fun c -> Printf.sprintf "%s; %s" c (exec ())) comms)

let generate rng =
  let n = 4 + Rng.int rng 9 in
  let ncomms = 1 + Rng.int rng 3 in
  let nexecs = 1 + Rng.int rng 2 in
  let comms = List.init ncomms (fun i -> Printf.sprintf "c%d" i) in
  let execs = List.init nexecs (fun i -> Printf.sprintf "e%d" i) in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "algorithm fuzz(n);\n";
  Buffer.add_string buf "nodetype t : 0 .. n-1;\n";
  List.iteri
    (fun i _ -> Buffer.add_string buf (comm_rule rng n i ^ "\n"))
    comms;
  List.iteri
    (fun i _ ->
      Buffer.add_string buf
        (Printf.sprintf "exphase e%d cost %d;\n" i (1 + Rng.int rng 9)))
    execs;
  Buffer.add_string buf
    (Printf.sprintf "phases %s;\n" (phase_expr rng comms execs));
  (Buffer.contents buf, n)

let mutate ?(junk = "(){};->|^.") rng source =
  let s = Bytes.of_string source in
  let len = Bytes.length s in
  match Rng.int rng 4 with
  | 0 -> Bytes.sub_string s 0 (Rng.int rng len) (* truncate *)
  | 1 ->
    (* delete one char *)
    let i = Rng.int rng len in
    Bytes.sub_string s 0 i ^ Bytes.sub_string s (i + 1) (len - i - 1)
  | 2 ->
    (* insert a structural char *)
    let i = Rng.int rng len in
    Bytes.sub_string s 0 i
    ^ String.make 1 junk.[Rng.int rng (String.length junk)]
    ^ Bytes.sub_string s i (len - i)
  | _ ->
    (* overwrite one char *)
    let i = Rng.int rng len in
    Bytes.set s i 'q';
    Bytes.to_string s

(* --- the contract under test -------------------------------------- *)

let fuel_cap = 200

(* sticky-dead polls still charge their cost while loops unwind, so a
   budgeted run may overshoot the cap by a bounded amount; far past
   that means some loop is ignoring the dead budget *)
let fuel_slack = 20_000

let check_pipeline seed compiled =
  let rng = Rng.create (seed lxor 0x5eed) in
  let t = topo topologies.(Rng.int rng (Array.length topologies)) in
  let options =
    {
      Driver.default_options with
      Driver.fuel = Some fuel_cap;
      Driver.fallback = true;
    }
  in
  match
    Isolate.protect (fun () ->
        let ctx = Ctx.of_compiled ~options compiled t in
        (Driver.run ctx, Budget.fuel_used ctx.Ctx.budget))
  with
  | Error e -> QCheck.Test.fail_reportf "pipeline raised: %s" e
  | Ok (Error e, _) -> QCheck.Test.fail_reportf "no mapping: %s" e
  | Ok (Ok (m, _deg), used) ->
    (match Mapping.validate m with
    | Ok () -> ()
    | Error e -> QCheck.Test.fail_reportf "invalid mapping: %s" e);
    if used > fuel_cap + fuel_slack then
      QCheck.Test.fail_reportf "budget ignored: %d fuel used against cap %d"
        used fuel_cap;
    true

let well_formed =
  QCheck.Test.make ~name:"well-formed programs map validly under budget"
    ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let source, n = generate rng in
      match
        Isolate.protect (fun () ->
            Larcs.Compile.compile_source ~bindings:[ ("n", n) ] source)
      with
      | Error e -> QCheck.Test.fail_reportf "compiler raised on:\n%s\n%s" source e
      | Ok (Error e) ->
        QCheck.Test.fail_reportf "generator produced invalid LaRCS:\n%s\n%s"
          source e
      | Ok (Ok compiled) -> check_pipeline seed compiled)

let mutated =
  QCheck.Test.make ~name:"mutated programs never crash the compiler"
    ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let source, n = generate rng in
      let source = mutate rng source in
      match
        Isolate.protect (fun () ->
            Larcs.Compile.compile_source ~bindings:[ ("n", n) ] source)
      with
      | Error e ->
        QCheck.Test.fail_reportf "compiler raised on mutated input:\n%s\n%s"
          source e
      | Ok (Error _) -> true (* a clean rejection is the expected outcome *)
      | Ok (Ok compiled) -> check_pipeline seed compiled)

(* --- request and trace lines --------------------------------------- *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* an error names a token when it quotes the token or its key, or
   leads a phrase with the key ("fuel wants ...", "bad pin ...") *)
let names e tok =
  let key = match String.index_opt tok '=' with Some i -> String.sub tok 0 i | None -> tok in
  contains e (Printf.sprintf "%S" tok)
  || contains e (Printf.sprintf "%S" key)
  || (key <> "" && contains e (key ^ " "))

(* keys fold left to right and the first error wins, so the shortest
   failing prefix of the options must fail with the whole line's
   error, and that error must name the prefix's last token *)
let check_first_offender parse head opts e =
  let rec go prefix = function
    | [] -> QCheck.Test.fail_reportf "line fails with %S but no prefix of it does" e
    | tok :: rest -> (
      let prefix = prefix @ [ tok ] in
      match parse (String.concat " " (head @ prefix)) with
      | Ok _ -> go prefix rest
      | Error e' ->
        if e' <> e then
          QCheck.Test.fail_reportf "prefix error %S differs from line error %S" e' e;
        if not (names e tok) then
          QCheck.Test.fail_reportf "error %S does not name token %S" e tok;
        true)
  in
  go [] opts

let option_keys =
  Array.of_list
    (List.map (fun k -> k.Service.k_name) Service.keys @ [ "retries"; "procs"; "n"; "s" ])

let option_values =
  [|
    "0"; "7"; "-3"; "x"; ""; "1.5"; "mm"; "coarse"; "bogus"; "mwm,kl"; "0:1";
    "0=1,2:3"; "a:b"; "3:mem"; "io,mem,"; ","; "99999999999999999999";
  |]

let stray_tokens = [| "extra"; "=x"; "k="; "="; "a=b=c" |]

let option_tokens rng =
  let token () =
    if Rng.int rng 8 = 0 then Rng.pick rng stray_tokens
    else Rng.pick rng option_keys ^ "=" ^ Rng.pick rng option_values
  in
  let toks = List.init (Rng.int rng 6) (fun _ -> token ()) in
  (* now and then a repeated key *)
  match toks with t :: _ when Rng.int rng 4 = 0 -> toks @ [ t ] | _ -> toks

let programs = [| "jacobi"; "nbody"; "synth:grid:16"; "./no-such.larcs" |]

let line_junk = "=,: x#-\"\\\255"

let request_line rng =
  let line =
    String.concat " " (Rng.pick rng programs :: "torus:4x4" :: option_tokens rng)
  in
  if Rng.int rng 2 = 0 then line else mutate ~junk:line_junk rng line

let request_lines =
  QCheck.Test.make ~name:"request lines never raise and name what they refuse"
    ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let line = request_line (Rng.create seed) in
      match Service.parse_request ~id:1 line with
      | exception exn ->
        QCheck.Test.fail_reportf "%S raised %s" line (Printexc.to_string exn)
      | Ok _ -> true
      | Error e -> (
        let parse l = Service.parse_request ~id:1 l in
        match Service.tokens line with
        | program :: topology :: opts ->
          check_first_offender parse [ program; topology ] opts e
        | _ -> e = "want: PROGRAM TOPOLOGY [key=value ...]"))

(* the command line hands each key's flag values to the same setters:
   a scalar flag given twice is the line's duplicate key, a list flag
   given twice is one comma-joined value *)
let flags_agree =
  QCheck.Test.make ~name:"flags answer as request lines do" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let keys = Array.of_list Service.keys in
      let given =
        List.init (Rng.int rng 4) (fun _ ->
            let values = List.init (1 + Rng.int rng 2) (fun _ -> Rng.pick rng option_values) in
            (Rng.pick rng keys, values))
      in
      let tokens (k, vs) =
        let vs = if k.Service.k_list then [ String.concat "," vs ] else vs in
        List.map (fun v -> k.Service.k_name ^ "=" ^ v) vs
      in
      let line =
        String.concat " " ("jacobi" :: "torus:4x4" :: List.concat_map tokens given)
      in
      let base = { Driver.default_options with Driver.fallback = true } in
      match (Service.apply_flags base given, Service.parse_request ~id:1 line) with
      | Ok o, Ok (Some req) -> o = req.Service.rq_options
      | Error e, Error e' -> e = e' || QCheck.Test.fail_reportf "%S vs %S on %S" e e' line
      | _ -> QCheck.Test.fail_reportf "flags and line %S disagree" line)

let trace_line rng =
  let line =
    match Rng.int rng 4 with
    | 0 | 1 ->
      String.concat " " ("arrive" :: "job" :: Rng.pick rng programs :: option_tokens rng)
    | 2 ->
      String.concat " "
        (Rng.pick rng [| "kill"; "revive" |]
        :: List.init (Rng.int rng 3) (fun _ ->
               Rng.pick rng [| "procs"; "links"; "nodes" |]
               ^ "="
               ^ Rng.pick rng [| "1"; "1,2"; "x"; ""; "-1"; "1,,2" |]))
    | _ -> "depart job"
  in
  if Rng.int rng 2 = 0 then line else mutate ~junk:line_junk rng line

let trace_lines =
  QCheck.Test.make ~name:"trace lines never raise and name what they refuse"
    ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let line = trace_line (Rng.create seed) in
      match Cluster.parse_trace_line 3 line with
      | exception exn ->
        QCheck.Test.fail_reportf "%S raised %s" line (Printexc.to_string exn)
      | Ok _ -> true
      | Error e -> (
        let toks = Service.tokens line in
        if not (String.starts_with ~prefix:"line 3: " e) then
          QCheck.Test.fail_reportf "error %S lacks its line number" e;
        let parse = Cluster.parse_trace_line 3 in
        match toks with
        | "arrive" :: job :: program :: opts ->
          check_first_offender parse [ "arrive"; job; program ] opts e
        | (("kill" | "revive") as verb) :: (_ :: _ as opts) ->
          check_first_offender parse [ verb ] opts e
        | _ ->
          List.exists (names e) toks
          || QCheck.Test.fail_reportf "error %S names no token of %S" e line))

(* topology, synthetic-program and chaos specs: no spec raises, and
   every [Error] names the field it refuses — the family of a topology
   (or "topology" / "class" for the spec's shape and class suffix), the
   synth field, or the chaos event *)
let topology_families =
  [| "line"; "ring"; "mesh"; "torus"; "hypercube"; "cube"; "complete"; "bintree";
     "binomial"; "butterfly"; "ccc"; "hex"; "star"; "debruijn"; "shuffle"; "nosuch" |]

let sizes =
  [| "-1"; "0"; "1"; "2"; "3"; "7"; "8"; "9"; "13"; "14"; "63"; "70"; "100000";
     "4611686018427387903"; "99999999999999999999"; "x"; "" |]

let topology_spec rng =
  let arg =
    if Rng.bool rng then Rng.pick rng sizes
    else Rng.pick rng sizes ^ "x" ^ Rng.pick rng sizes
  in
  let spec = Rng.pick rng topology_families ^ ":" ^ arg in
  if Rng.int rng 3 = 0 then mutate ~junk:line_junk rng spec else spec

(* of_string builds what parses, so only kinds of at most 64
   processors or refused sizes appear; mutations insert no digits and
   cannot grow one *)
let small_kinds =
  [| "ring:8"; "mesh:4x4"; "torus:2x3"; "hypercube:6"; "ccc:4"; "star:4"; "bintree:4";
     "butterfly:3"; "debruijn:6"; "shuffle:5"; "complete:8"; "hex:3x3"; "line:1";
     "mesh:0x4"; "star:9"; "hypercube:-1"; "ring:x" |]

let class_spec rng =
  let group () =
    Rng.pick rng [| "mem"; "io"; "m!m"; ""; "compute" |]
    ^ (if Rng.int rng 6 = 0 then "" else "@")
    ^ Rng.pick rng [| "0"; "0-3"; "5-2"; "99"; "-1"; "x"; "1,2"; "0-63"; "" |]
  in
  let spec =
    Rng.pick rng small_kinds ^ ":classes="
    ^ String.concat "/" (List.init (1 + Rng.int rng 3) (fun _ -> group ()))
  in
  if Rng.int rng 3 = 0 then mutate ~junk:line_junk rng spec else spec

let synth_spec rng =
  let spec =
    String.concat ":"
      ("synth"
      :: Rng.pick rng [| "grid"; "ring"; "tree"; "rmat"; "mobius" |]
      :: Rng.pick rng sizes
      :: (if Rng.bool rng then [ Rng.pick rng sizes ] else []))
  in
  if Rng.int rng 3 = 0 then mutate ~junk:line_junk rng spec else spec

let chaos_spec rng =
  let event () =
    Rng.pick rng sizes ^ ":"
    ^ Rng.pick rng [| "kill-procs"; "kill-links"; "revive-procs"; "revive-links"; "boom" |]
    ^ (if Rng.int rng 6 = 0 then "" else "=")
    ^ Rng.pick rng [| "3"; "1,2"; "x"; ""; "-1"; "1,,2" |]
  in
  let spec = String.concat ";" (List.init (1 + Rng.int rng 3) (fun _ -> event ())) in
  if Rng.int rng 3 = 0 then mutate ~junk:line_junk rng spec else spec

let spec_strings =
  QCheck.Test.make ~name:"specs never raise and name the field they refuse" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let check what parse fields spec =
        match parse spec with
        | exception exn ->
          QCheck.Test.fail_reportf "%s %S raised %s" what spec (Printexc.to_string exn)
        | Ok _ -> true
        | Error e ->
          List.exists (contains e) (fields spec)
          || QCheck.Test.fail_reportf "%s %S: error %S names no field" what spec e
      in
      let family spec = List.hd (String.split_on_char ':' spec) in
      check "topology" Topology.parse (fun s -> [ family s; "topology" ]) (topology_spec rng)
      && check "classed topology" Topology.of_string
           (fun s -> [ family s; "topology"; "class" ])
           (class_spec rng)
      && check "synth" Synth.parse
           (fun _ -> [ "family"; "task count"; "seed"; "want synth:" ])
           (synth_spec rng)
      && check "chaos" Cluster.parse_chaos (fun _ -> [ "chaos" ]) (chaos_spec rng))

let () =
  Alcotest.run "fuzz"
    [
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest well_formed;
          QCheck_alcotest.to_alcotest mutated;
          QCheck_alcotest.to_alcotest request_lines;
          QCheck_alcotest.to_alcotest flags_agree;
          QCheck_alcotest.to_alcotest trace_lines;
          QCheck_alcotest.to_alcotest spec_strings;
        ] );
    ]
