type 'a entry = { prio : int; seq : int; value : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  (* [heap] slots >= [size] are stale; a dummy entry fills slot 0 of a
     fresh queue only after the first push. *)
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }

let length q = q.size

let is_empty q = q.size = 0

let before a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let swap h i j =
  let t = h.(i) in
  h.(i) <- h.(j);
  h.(j) <- t

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before h.(i) h.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h size i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < size && before h.(l) h.(i) then l else i in
  let smallest = if r < size && before h.(r) h.(smallest) then r else smallest in
  if smallest <> i then begin
    swap h i smallest;
    sift_down h size smallest
  end

let grow q entry =
  let cap = Array.length q.heap in
  if q.size = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let nh = Array.make ncap entry in
    Array.blit q.heap 0 nh 0 q.size;
    q.heap <- nh
  end

let push q prio value =
  let entry = { prio; seq = q.next_seq; value } in
  q.next_seq <- q.next_seq + 1;
  grow q entry;
  q.heap.(q.size) <- entry;
  q.size <- q.size + 1;
  sift_up q.heap (q.size - 1)

let pop q =
  if q.size = 0 then None
  else begin
    let top = q.heap.(0) in
    q.size <- q.size - 1;
    if q.size > 0 then begin
      q.heap.(0) <- q.heap.(q.size);
      sift_down q.heap q.size 0
    end;
    Some (top.prio, top.value)
  end

let peek q = if q.size = 0 then None else Some (q.heap.(0).prio, q.heap.(0).value)

let of_list xs =
  let q = create () in
  List.iter (fun (prio, v) -> push q prio v) xs;
  q

let to_sorted_list q =
  let copy = { heap = Array.copy q.heap; size = q.size; next_seq = q.next_seq } in
  let rec drain acc =
    match pop copy with None -> List.rev acc | Some pv -> drain (pv :: acc)
  in
  drain []
