type t = Off | On | Pos of string | Neg of string

let conducts l env =
  match l with
  | Off -> false
  | On -> true
  | Pos v -> env v
  | Neg v -> not (env v)

let negate = function
  | Off -> On
  | On -> Off
  | Pos v -> Neg v
  | Neg v -> Pos v

let equal = Stdlib.( = )
let variable = function Off | On -> None | Pos v | Neg v -> Some v

let to_string = function
  | Off -> "0"
  | On -> "1"
  | Pos v -> v
  | Neg v -> "!" ^ v

let pp ppf l = Format.pp_print_string ppf (to_string l)

let pos_code k = (2 * k) + 1
let neg_code k = (2 * k) + 2
let code_variable c = (c - 1) / 2
let recode c k = if c = 0 then 0 else (2 * k) + 2 - (c land 1)

let of_code vars c =
  if c = 0 then On
  else if c land 1 = 1 then Pos vars.(code_variable c)
  else Neg vars.(code_variable c)
