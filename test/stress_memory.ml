(* Flat-memory stress (`dune build @stress`).

   A long-lived server keeps one topology value per spec in its caches
   and maps request after request onto it, so nothing a request derives
   per processor pair may stay attached to that shared value.  Ten
   distinct large R-MAT requests on one cached torus:16x16 go through
   Service.run_request; the process's peak resident set (VmHWM) may grow
   by at most [max_growth_mb] from the first answer to the tenth.

   The program table keeps only its latest entry, as a daemon's bounded
   LRU does under many-key traffic: ten cached compiled programs are
   wanted contents, not growth.  The topology table is unbounded and
   holds the one shared value.  A full major collection before each
   request clears the previous request's garbage, so the peaks compare
   what each request keeps rather than how far the incremental
   collector had got. *)

open Oregami

let requests = 10

let max_growth_mb = 20

let topology = "torus:16x16"

let vm_hwm_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_lines
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] -> Scanf.sscanf_opt v " %d kB" (fun kb -> kb / 1024)
         | _ -> None)
  |> Option.get

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("stress: " ^ msg);
      exit 1)
    fmt

let () =
  if not (Sys.file_exists "/proc/self/status") then
    print_endline "stress: no /proc/self/status, flat-memory check not run"
  else begin
    let caches =
      {
        Service.c_programs = Prelude.Memo.create ~bound:1 ();
        c_topologies = Prelude.Memo.create ();
      }
    in
    let peaks =
      List.init requests (fun i ->
          let line = Printf.sprintf "synth:rmat:4000:%d %s" (i + 1) topology in
          match Service.parse_request ~id:(i + 1) line with
          | Ok (Some req) ->
            Gc.full_major ();
            let o = Service.run_request ~caches req in
            if not o.Service.r_ok then fail "%s: %s" line o.Service.r_error;
            vm_hwm_mb ()
          | Ok None | Error _ -> fail "%s: not a request line" line)
    in
    (match Prelude.Memo.find_opt caches.Service.c_topologies topology with
    | Some (Ok topo) when Distcache.hop_builds topo = 1 -> ()
    | Some _ | None -> fail "the requests did not share one cached %s" topology);
    let first = List.hd peaks and last = List.nth peaks (requests - 1) in
    if last - first > max_growth_mb then
      fail "VmHWM grew from %d MB to %d MB over %d requests on one cached topology (%s)"
        first last requests
        (String.concat " " (List.map string_of_int peaks));
    Printf.printf "stress: %d large requests on one cached topology, VmHWM %d -> %d MB\n"
      requests first last
  end
