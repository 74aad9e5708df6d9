type t = {
  fuel_cap : int; (* max_int = unlimited *)
  deadline : float; (* monotonic seconds; infinity = unlimited *)
  mutable fuel_used : int;
  mutable until_clock : int; (* fuel units until the next clock check *)
  mutable dead : string option;
  mutable noted_rev : string list;
}

(* Checking the monotonic clock on every poll would dominate the very
   loops the budget protects; amortise it over this many fuel units. *)
let clock_stride = 512

let make ~fuel_cap ~deadline =
  {
    fuel_cap;
    deadline;
    fuel_used = 0;
    (* First poll consults the clock immediately so deadline-0 budgets
       trip before any real work happens. *)
    until_clock = 0;
    dead = None;
    noted_rev = [];
  }

let unlimited () = make ~fuel_cap:max_int ~deadline:infinity

let create ?fuel ?deadline_ms () =
  let fuel_cap = match fuel with Some f -> max 0 f | None -> max_int in
  let deadline =
    match deadline_ms with
    | Some ms -> Oregami_prelude.Clock.now () +. (ms /. 1e3)
    | None -> infinity
  in
  make ~fuel_cap ~deadline

let limited b = b.fuel_cap <> max_int || b.deadline < infinity

let poll b ~cost =
  b.fuel_used <- b.fuel_used + cost;
  match b.dead with
  | Some _ -> false
  | None ->
      if b.fuel_used > b.fuel_cap then (
        b.dead <- Some "fuel";
        false)
      else begin
        b.until_clock <- b.until_clock - cost;
        if b.until_clock > 0 then true
        else begin
          b.until_clock <- clock_stride;
          if b.deadline < infinity && Oregami_prelude.Clock.now () > b.deadline
          then (
            b.dead <- Some "deadline";
            false)
          else true
        end
      end

let exhausted b = b.dead <> None

let reason b = b.dead

let note b site =
  if not (List.mem site b.noted_rev) then b.noted_rev <- site :: b.noted_rev

let truncations b = List.rev b.noted_rev

let fuel_used b = b.fuel_used

let fuel_left b = max 0 (b.fuel_cap - b.fuel_used)
