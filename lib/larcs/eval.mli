(** Evaluation of LaRCS arithmetic expressions and conditions under a
    variable binding (algorithm parameters, imported variables, and
    rule index variables).

    [mod] is Euclidean (always non-negative for positive modulus), so
    [(i - 1) mod n] wraps as ring programs expect; [/] truncates toward
    zero; [pow] requires a non-negative exponent. *)

type env = (string * int) list

val expr : env -> Ast.expr -> (int, string) result

val cond : env -> Ast.cond -> (bool, string) result

val expr_exn : env -> Ast.expr -> int
(** Raises [Failure] with the error message. *)

val builtins : string list
(** Recognized function names: min, max, abs, pow, log2. *)
