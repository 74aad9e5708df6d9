type t = { words : int array; n : int }

let bits_per_word = Sys.int_size

let word_count n = (n + bits_per_word - 1) / bits_per_word

let create n = { words = Array.make (max 1 (word_count n)) 0; n }

let capacity t = t.n

let check t i =
  if i < 0 || i >= t.n then invalid_arg (Printf.sprintf "Bitset: index %d out of [0,%d)" i t.n)

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let copy t = { words = Array.copy t.words; n = t.n }

let full n =
  let t = create n in
  for i = 0 to n - 1 do
    add t i
  done;
  t

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = ref t.words.(w) in
    while !word <> 0 do
      let low = !word land - !word in
      let bit =
        (* index of the single set bit in [low] *)
        let rec idx b acc = if b = 1 then acc else idx (b lsr 1) (acc + 1) in
        idx low 0
      in
      f ((w * bits_per_word) + bit);
      word := !word land lnot low
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let same_capacity a b =
  if a.n <> b.n then invalid_arg "Bitset: capacity mismatch"

let union_into dst src =
  same_capacity dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) lor src.words.(w)
  done

let inter_into dst src =
  same_capacity dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) land src.words.(w)
  done

let equal a b = a.n = b.n && Array.for_all2 (fun x y -> x = y) a.words b.words

let choose t =
  let exception Found of int in
  try
    iter (fun i -> raise (Found i)) t;
    None
  with Found i -> Some i
