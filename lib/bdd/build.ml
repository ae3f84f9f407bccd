(* A sub-result is a node and a polarity bit, [2 * node + neg], so a
   negation flips a bit instead of building a complement. The
   operators fold their operands' bits into the code they hand to
   [Manager.apply] (bit 2a + b of a code is op(a, b)), so their results
   are plain nodes; only [to_node] on a negated value builds one. *)
type signed = int

let positive n = 2 * n

(* op(not a, b) and op(a, not b): the code's bits trade places. *)
let negate_first op = ((op lsr 2) land 0b0011) lor ((op land 0b0011) lsl 2)
let negate_second op = ((op lsr 1) land 0b0101) lor ((op land 0b0101) lsl 1)

let combine man op a b =
  let op = if a land 1 = 1 then negate_first op else op in
  let op = if b land 1 = 1 then negate_second op else op in
  positive (Manager.apply man op (a lsr 1) (b lsr 1))

let to_node man s =
  if s land 1 = 0 then s lsr 1 else Manager.not_ man (s lsr 1)

let signed_expr man ~env e =
  let rec go e =
    match (e : Logic.Expr.t) with
    | Const true -> positive Manager.one
    | Const false -> positive Manager.zero
    | Var v -> env v
    | Not e -> go e lxor 1
    | And [] -> positive Manager.one
    | And (e :: es) -> fold Manager.op_and (go e) es
    | Or [] -> positive Manager.zero
    | Or (e :: es) -> fold Manager.op_or (go e) es
    | Xor (a, b) ->
      let a = go a in
      combine man Manager.op_xor a (go b)
  and fold op acc = function
    | [] -> acc
    | e :: es -> fold op (combine man op acc (go e)) es
  in
  go e

let expr man ~var_level e =
  to_node man
    (signed_expr man ~env:(fun v -> positive (Manager.var man (var_level v))) e)
