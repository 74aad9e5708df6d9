module Tab = Oregami_prelude.Tab

type outcome =
  | Produced of int
  | Rejected of string
  | Skipped of string
  | Crashed of string

type degradation = Full | Truncated of string list | Fallback

type attempt = { at_strategy : string; at_outcome : outcome; at_seconds : float }

type candidate = {
  cd_strategy : string;
  cd_label : string;
  cd_score : int option;
  cd_ok : bool;
  cd_note : string;
  mutable cd_winner : bool;
}

type t = {
  mutable attempts_rev : attempt list;
  mutable cands_rev : candidate list;
  mutable matching_rounds : int;
  mutable refine_swaps : int;
  mutable hop_builds : int;
  mutable seconds : float;
  mutable winner : (string * string) option;
  mutable degradation : degradation;
  mutable phases : (string * float) list; (* aggregated by name *)
  mutable extras : (string * int) list; (* named counters, aggregated by name *)
}

let create () =
  {
    attempts_rev = [];
    cands_rev = [];
    matching_rounds = 0;
    refine_swaps = 0;
    hop_builds = 0;
    seconds = 0.0;
    winner = None;
    degradation = Full;
    phases = [];
    extras = [];
  }

let record_attempt t ~strategy ~outcome ~seconds =
  t.attempts_rev <-
    { at_strategy = strategy; at_outcome = outcome; at_seconds = seconds }
    :: t.attempts_rev

let record_candidate t ~strategy ~label ~score ~ok ~note =
  let c =
    {
      cd_strategy = strategy;
      cd_label = label;
      cd_score = score;
      cd_ok = ok;
      cd_note = note;
      cd_winner = false;
    }
  in
  t.cands_rev <- c :: t.cands_rev;
  c

let mark_winner t c =
  c.cd_winner <- true;
  t.winner <- Some (c.cd_strategy, c.cd_label)

let set_degradation t d = t.degradation <- d
let degradation t = t.degradation

let degradation_string = function
  | Full -> "full"
  | Truncated sites -> Printf.sprintf "truncated(%s)" (String.concat "," sites)
  | Fallback -> "fallback"

let add_phase_seconds t name s =
  let rec bump = function
    | [] -> [ (name, s) ]
    | (n, acc) :: rest when n = name -> (n, acc +. s) :: rest
    | kv :: rest -> kv :: bump rest
  in
  t.phases <- bump t.phases

let phase_seconds t = t.phases

let bump t name n =
  let rec add = function
    | [] -> [ (name, n) ]
    | (k, acc) :: rest when k = name -> (k, acc + n) :: rest
    | kv :: rest -> kv :: add rest
  in
  t.extras <- add t.extras

let extra_counters t = t.extras

let add_matching_rounds t n = t.matching_rounds <- t.matching_rounds + n
let add_refine_swaps t n = t.refine_swaps <- t.refine_swaps + n
let set_hop_builds t n = t.hop_builds <- n
let add_seconds t s = t.seconds <- t.seconds +. s

let attempts t = List.rev t.attempts_rev
let candidates t = List.rev t.cands_rev
let winner t = t.winner

let rejections t =
  List.filter_map
    (fun a ->
      match a.at_outcome with
      | Rejected r | Skipped r -> Some (a.at_strategy, r)
      | Crashed e -> Some (a.at_strategy, "crashed: " ^ e)
      | Produced _ -> None)
    (attempts t)
  @ List.filter_map
      (fun c ->
        if c.cd_ok then None
        else Some (c.cd_strategy, Printf.sprintf "candidate %s: %s" c.cd_label c.cd_note))
      (candidates t)

let matching_rounds t = t.matching_rounds
let refine_swaps t = t.refine_swaps
let hop_builds t = t.hop_builds

let counters t =
  let tally f = List.length (List.filter f (attempts t)) in
  [
    ("attempts", List.length t.attempts_rev);
    ("produced", tally (fun a -> match a.at_outcome with Produced _ -> true | _ -> false));
    ("rejected", tally (fun a -> match a.at_outcome with Rejected _ -> true | _ -> false));
    ("skipped", tally (fun a -> match a.at_outcome with Skipped _ -> true | _ -> false));
    ("crashed", tally (fun a -> match a.at_outcome with Crashed _ -> true | _ -> false));
    ("candidates", List.length t.cands_rev);
    ( "valid candidates",
      List.length (List.filter (fun c -> c.cd_ok) (candidates t)) );
    ("matching rounds", t.matching_rounds);
    ("refine swaps", t.refine_swaps);
    ("distcache hop builds", t.hop_builds);
  ]
  @ t.extras

let ms s = Printf.sprintf "%.3f" (1000.0 *. s)

let to_table t =
  let attempt_rows =
    List.map
      (fun a ->
        let outcome, detail =
          match a.at_outcome with
          | Produced n -> (Printf.sprintf "produced %d" n, "")
          | Rejected r -> ("rejected", r)
          | Skipped r -> ("skipped", r)
          | Crashed e -> ("CRASHED", e)
        in
        [ a.at_strategy; outcome; ms a.at_seconds; detail ])
      (attempts t)
  in
  let cand_rows =
    List.map
      (fun c ->
        [
          c.cd_strategy;
          c.cd_label;
          (match c.cd_score with Some s -> string_of_int s | None -> "-");
          (if c.cd_ok then "yes" else "NO: " ^ c.cd_note);
          (if c.cd_winner then "<-- winner" else "");
        ])
      (candidates t)
  in
  let counter_rows = List.map (fun (k, v) -> [ k; string_of_int v ]) (counters t) in
  String.concat "\n"
    [
      "strategy attempts:";
      Tab.render ~header:[ "strategy"; "outcome"; "ms"; "detail" ] attempt_rows;
      "candidates (score = METRICS completion-time model):";
      Tab.render ~header:[ "strategy"; "mapping"; "score"; "valid"; "" ] cand_rows;
      "pipeline counters:";
      Tab.render ~header:[ "counter"; "value" ] counter_rows;
      "phase wall-clock:";
      Tab.render ~header:[ "phase"; "ms" ]
        (List.map (fun (n, s) -> [ n; ms s ]) (phase_seconds t));
      Printf.sprintf "degradation: %s" (degradation_string t.degradation);
      Printf.sprintf "total pipeline time: %s ms" (ms t.seconds);
      "";
    ]

let to_sexp t =
  let buf = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "(pipeline-stats\n (attempts";
  List.iter
    (fun a ->
      let outcome =
        match a.at_outcome with
        | Produced n -> Printf.sprintf "(produced %d)" n
        | Rejected r -> Printf.sprintf "(rejected %S)" r
        | Skipped r -> Printf.sprintf "(skipped %S)" r
        | Crashed e -> Printf.sprintf "(crashed %S)" e
      in
      pf "\n  ((strategy %s) (outcome %s) (seconds %.6f))" a.at_strategy outcome
        a.at_seconds)
    (attempts t);
  pf ")\n (candidates";
  List.iter
    (fun c ->
      pf "\n  ((strategy %s) (mapping %S) (score %s) (valid %b) (winner %b)%s)"
        c.cd_strategy c.cd_label
        (match c.cd_score with Some s -> string_of_int s | None -> "()")
        c.cd_ok c.cd_winner
        (if c.cd_note = "" then "" else Printf.sprintf " (note %S)" c.cd_note))
    (candidates t);
  pf ")\n (counters";
  List.iter (fun (k, v) -> pf " (%s %d)" (String.map (fun ch -> if ch = ' ' then '-' else ch) k) v) (counters t);
  pf ")\n (phases";
  List.iter (fun (n, s) -> pf " (%s %.6f)" n s) (phase_seconds t);
  pf ")\n (winner %s)"
    (match t.winner with
    | Some (s, l) -> Printf.sprintf "((strategy %s) (mapping %S))" s l
    | None -> "()");
  pf "\n (degradation %s)"
    (match t.degradation with
    | Full -> "full"
    | Fallback -> "fallback"
    | Truncated sites ->
        Printf.sprintf "(truncated%s)"
          (String.concat "" (List.map (fun s -> " " ^ s) sites)));
  pf "\n (seconds %.6f))" t.seconds;
  Buffer.contents buf
