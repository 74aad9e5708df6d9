type env = (string * int) list

let builtins = [ "min"; "max"; "abs"; "pow"; "log2" ]

let euclid_mod a b =
  if b = 0 then Error "mod by zero"
  else begin
    let m = a mod b in
    Ok (if m < 0 then m + abs b else m)
  end

let pow_int a b =
  if b < 0 then Error "pow with negative exponent"
  else begin
    let rec go acc base b =
      if b = 0 then acc
      else go (if b land 1 = 1 then acc * base else acc) (base * base) (b lsr 1)
    in
    Ok (go 1 a b)
  end

let log2_floor a =
  if a <= 0 then Error "log2 of non-positive value"
  else begin
    let rec go v acc = if v <= 1 then acc else go (v / 2) (acc + 1) in
    Ok (go a 0)
  end

let rec expr env e =
  let ( let* ) = Result.bind in
  match e with
  | Ast.Int v -> Ok v
  | Ast.Var name -> begin
    match List.assoc_opt name env with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "unbound variable %S" name)
  end
  | Ast.Neg a ->
    let* v = expr env a in
    Ok (-v)
  | Ast.Bin (op, a, b) -> begin
    let* va = expr env a in
    let* vb = expr env b in
    match op with
    | Ast.Add -> Ok (va + vb)
    | Ast.Sub -> Ok (va - vb)
    | Ast.Mul -> Ok (va * vb)
    | Ast.Div -> if vb = 0 then Error "division by zero" else Ok (va / vb)
    | Ast.Mod -> euclid_mod va vb
    | Ast.Xor -> Ok (va lxor vb)
    | Ast.Pow -> pow_int va vb
  end
  | Ast.Call (f, args) -> begin
    let* vals =
      List.fold_left
        (fun acc a ->
          let* l = acc in
          let* v = expr env a in
          Ok (v :: l))
        (Ok []) args
    in
    let vals = List.rev vals in
    match (f, vals) with
    | "min", [ a; b ] -> Ok (min a b)
    | "max", [ a; b ] -> Ok (max a b)
    | "abs", [ a ] -> Ok (abs a)
    | "pow", [ a; b ] -> pow_int a b
    | "log2", [ a ] -> log2_floor a
    | ("min" | "max" | "abs" | "pow" | "log2"), _ ->
      Error (Printf.sprintf "wrong number of arguments to %s" f)
    | other, _ -> Error (Printf.sprintf "unknown function %S" other)
  end

let rec cond env c =
  let ( let* ) = Result.bind in
  match c with
  | Ast.Cmp (op, a, b) -> begin
    let* va = expr env a in
    let* vb = expr env b in
    match op with
    | Ast.Eq -> Ok (va = vb)
    | Ast.Ne -> Ok (va <> vb)
    | Ast.Lt -> Ok (va < vb)
    | Ast.Le -> Ok (va <= vb)
    | Ast.Gt -> Ok (va > vb)
    | Ast.Ge -> Ok (va >= vb)
  end
  | Ast.And (a, b) ->
    let* va = cond env a in
    if va then cond env b else Ok false
  | Ast.Or (a, b) ->
    let* va = cond env a in
    if va then Ok true else cond env b
  | Ast.Not a ->
    let* va = cond env a in
    Ok (not va)

let expr_exn env e = match expr env e with Ok v -> v | Error m -> failwith m
