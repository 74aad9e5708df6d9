(* Machine-readable records of the experiment harness (--json FILE):
   every quantitative headline an experiment prints can also land here,
   so CI and scripts do not have to scrape the tables. *)

type record = {
  rec_experiment : string;  (* E-id, e.g. "E18" *)
  rec_case : string;
  rec_seconds : float;  (* wall-clock of the measured step *)
  rec_completion : int option;  (* METRICS completion-time model *)
  rec_speedup : float option;
  rec_extra : (string * float) list;  (* experiment-specific numbers *)
}

let records : record list ref = ref []

let record ?completion ?speedup ?(extra = []) ~experiment ~case seconds =
  records :=
    {
      rec_experiment = experiment;
      rec_case = case;
      rec_seconds = seconds;
      rec_completion = completion;
      rec_speedup = speedup;
      rec_extra = extra;
    }
    :: !records

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* [--json FILE] merges with an existing FILE instead of truncating
   it: a partial run (--smoke, --only E19) used to silently wipe every
   record of the full suite.  Records are keyed by (experiment, case);
   fresh records win, all others are carried over verbatim. *)

let json_string_field line key =
  let pat = Printf.sprintf {|"%s": "|} key in
  let plen = String.length pat and len = String.length line in
  let rec find i =
    if i + plen > len then None
    else if String.sub line i plen = pat then Some (i + plen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    (* value kept in escaped form, for comparison against [json_escape]
       output of the fresh records *)
    let b = Buffer.create 16 in
    let rec scan j =
      if j >= len then None
      else
        match line.[j] with
        | '"' -> Some (Buffer.contents b)
        | '\\' when j + 1 < len ->
          Buffer.add_char b '\\';
          Buffer.add_char b line.[j + 1];
          scan (j + 2)
        | c ->
          Buffer.add_char b c;
          scan (j + 1)
    in
    scan start

let carried_records file fresh_keys =
  if not (Sys.file_exists file) then []
  else
    In_channel.with_open_text file In_channel.input_lines
    |> List.filter_map (fun line ->
           let line = String.trim line in
           let line =
             if String.length line > 0 && line.[String.length line - 1] = ',' then
               String.sub line 0 (String.length line - 1)
             else line
           in
           if String.length line > 0 && line.[0] = '{' then
             match
               (json_string_field line "experiment", json_string_field line "case")
             with
             | Some e, Some c when not (List.mem (e, c) fresh_keys) -> Some line
             | _ -> None
           else None)

let write_json file =
  let fresh = List.rev !records in
  let fresh_keys =
    List.map (fun r -> (json_escape r.rec_experiment, json_escape r.rec_case)) fresh
  in
  let kept = carried_records file fresh_keys in
  let oc = open_out file in
  let fields r =
    [
      Printf.sprintf {|"experiment": "%s"|} (json_escape r.rec_experiment);
      Printf.sprintf {|"case": "%s"|} (json_escape r.rec_case);
      Printf.sprintf {|"seconds": %.6f|} r.rec_seconds;
    ]
    @ (match r.rec_completion with
      | Some c -> [ Printf.sprintf {|"completion": %d|} c ]
      | None -> [])
    @ (match r.rec_speedup with
      | Some s -> [ Printf.sprintf {|"speedup": %.3f|} s ]
      | None -> [])
    @ List.map
        (fun (k, v) -> Printf.sprintf {|"%s": %.3f|} (json_escape k) v)
        r.rec_extra
  in
  let lines =
    kept @ List.map (fun r -> "{ " ^ String.concat ", " (fields r) ^ " }") fresh
  in
  output_string oc "[\n";
  List.iteri
    (fun i line ->
      if i > 0 then output_string oc ",\n";
      output_string oc ("  " ^ line))
    lines;
  output_string oc "\n]\n";
  close_out oc;
  Printf.printf "\nwrote %d record(s) to %s (%d carried over from the previous file)\n"
    (List.length lines) file (List.length kept)
