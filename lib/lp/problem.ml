type var = int

type row = { coeffs : (float * var) list; rel : Simplex.relation; rhs : float }

type t = {
  mutable names : string list;  (* reversed *)
  mutable ubs : float list;  (* reversed *)
  mutable ints : bool list;  (* reversed *)
  mutable nvars : int;
  mutable rows : row list;  (* reversed *)
  mutable nrows : int;
  mutable objective : (float * var) list;
  mutable sense : [ `Minimize | `Maximize ];
  mutable dense : Simplex.lp option;  (* built on first use; edits clear it *)
}

let create () =
  {
    names = [];
    ubs = [];
    ints = [];
    nvars = 0;
    rows = [];
    nrows = 0;
    objective = [];
    sense = `Minimize;
    dense = None;
  }

let add_var ?(ub = infinity) ?(integer = false) t name =
  let v = t.nvars in
  t.names <- name :: t.names;
  t.ubs <- ub :: t.ubs;
  t.ints <- integer :: t.ints;
  t.nvars <- t.nvars + 1;
  t.dense <- None;
  v

let add_binary t name = add_var ~ub:1. ~integer:true t name

let add_constraint t coeffs rel rhs =
  List.iter
    (fun (_, v) ->
       if v < 0 || v >= t.nvars then invalid_arg "Problem.add_constraint: bad var")
    coeffs;
  t.rows <- { coeffs; rel; rhs } :: t.rows;
  t.nrows <- t.nrows + 1;
  t.dense <- None

let set_objective t ~sense coeffs =
  t.sense <- sense;
  t.objective <- coeffs;
  t.dense <- None

let sense t = t.sense
let num_vars t = t.nvars
let num_constraints t = t.nrows
let var_name t v = List.nth t.names (t.nvars - 1 - v)
let is_integer t v = List.nth t.ints (t.nvars - 1 - v)

let integer_vars t =
  let flags = Array.of_list (List.rev t.ints) in
  let acc = ref [] in
  for v = t.nvars - 1 downto 0 do
    if flags.(v) then acc := v :: !acc
  done;
  !acc

let objective_value t x =
  List.fold_left (fun acc (c, v) -> acc +. (c *. x.(v))) 0. t.objective

(* The dense rows, costs (negated when maximising) and column bounds,
   in the order the rows were added. *)
let build t =
  let n = t.nvars in
  let rows = Array.of_list (List.rev t.rows) in
  let a =
    Array.map
      (fun r ->
         let row = Array.make n 0. in
         List.iter (fun (c, v) -> row.(v) <- row.(v) +. c) r.coeffs;
         row)
      rows
  in
  let c = Array.make n 0. in
  List.iter (fun (k, v) -> c.(v) <- c.(v) +. k) t.objective;
  if t.sense = `Maximize then Array.iteri (fun j k -> c.(j) <- -.k) c;
  Simplex.lp ~a
    ~rel:(Array.map (fun r -> r.rel) rows)
    ~b:(Array.map (fun r -> r.rhs) rows)
    ~c
    ~ub:(Array.of_list (List.rev t.ubs))

let lp t =
  match t.dense with
  | Some lp -> lp
  | None ->
    let lp = build t in
    t.dense <- Some lp;
    lp

let solve_relaxation ?(budget = Resilience.Budget.unlimited) ?(bounds = [])
    ?(workspace = Simplex.workspace ()) t =
  let tableau = Simplex.start workspace (lp t) in
  List.iter (fun (v, lo, hi) -> Simplex.tighten tableau v ~lo ~hi) bounds;
  let outcome = Simplex.optimise ~budget workspace tableau in
  Simplex.release workspace tableau;
  match t.sense, outcome with
  | `Maximize, Simplex.Optimal { objective; solution } ->
    Simplex.Optimal { objective = -.objective; solution }
  | _ -> outcome
