(* In-memory span recorder for the benchmark's traced runs.

   Off by default: [span] is then a plain call, so untraced runs pay
   one branch per instrumented call.  When on, every span records its
   name, start, end, parent span and request id; nothing is written
   until [write_chrome] runs at the end of the process. *)

module Clock = Oregami.Prelude.Clock

type span = {
  sp_id : int;
  sp_name : string;
  sp_start : float;  (* Clock.now seconds *)
  sp_stop : float;
  sp_parent : int;  (* 0 at top level *)
  sp_rid : int;  (* request id: the operation the span belongs to *)
}

let enabled = ref false
let spans : span list ref = ref []  (* most recent first *)
let open_spans : (int * int) list ref = ref []  (* (id, rid), innermost first *)
let next_id = ref 0
let counters : (string, float) Hashtbl.t = Hashtbl.create 16

(* [rid] defaults to the enclosing span's request id *)
let span ?rid name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent, parent_rid =
      match !open_spans with (p, r) :: _ -> (p, r) | [] -> (0, 0)
    in
    let rid = Option.value rid ~default:parent_rid in
    open_spans := (id, rid) :: !open_spans;
    let t0 = Clock.now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Clock.now () in
        open_spans := List.tl !open_spans;
        spans :=
          { sp_id = id; sp_name = name; sp_start = t0; sp_stop = t1; sp_parent = parent; sp_rid = rid }
          :: !spans)
      f
  end

let count name v =
  if !enabled then
    Hashtbl.replace counters name
      (v +. Option.value (Hashtbl.find_opt counters name) ~default:0.0)

let counter name = Option.value (Hashtbl.find_opt counters name) ~default:0.0

let total_ms name =
  List.fold_left
    (fun acc s -> if s.sp_name = name then acc +. ((s.sp_stop -. s.sp_start) *. 1e3) else acc)
    0.0 !spans

(* Chrome trace-event JSON ("X" complete events, microseconds), readable
   by chrome://tracing and Perfetto *)
let write_chrome path =
  let all = List.rev !spans in
  let origin = match all with s :: _ -> s.sp_start | [] -> 0.0 in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\": [\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\": %S, \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \
             \"tid\": 1, \"args\": {\"id\": %d, \"parent\": %d, \"rid\": %d}}"
            (if i = 0 then "" else ",\n")
            s.sp_name
            ((s.sp_start -. origin) *. 1e6)
            ((s.sp_stop -. s.sp_start) *. 1e6)
            s.sp_id s.sp_parent s.sp_rid)
        all;
      output_string oc "\n]}\n")
