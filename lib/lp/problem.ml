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
  }

let add_var ?(ub = infinity) ?(integer = false) t name =
  let v = t.nvars in
  t.names <- name :: t.names;
  t.ubs <- ub :: t.ubs;
  t.ints <- integer :: t.ints;
  t.nvars <- t.nvars + 1;
  v

let add_binary t name = add_var ~ub:1. ~integer:true t name

let add_constraint t coeffs rel rhs =
  List.iter
    (fun (_, v) ->
       if v < 0 || v >= t.nvars then invalid_arg "Problem.add_constraint: bad var")
    coeffs;
  t.rows <- { coeffs; rel; rhs } :: t.rows;
  t.nrows <- t.nrows + 1

let set_objective t ~sense coeffs =
  t.sense <- sense;
  t.objective <- coeffs

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

let solve_relaxation ?(budget = Resilience.Budget.unlimited) ?(bounds = [])
    ?(workspace = Simplex.workspace ()) t =
  let n = t.nvars in
  let ubs = Array.of_list (List.rev t.ubs) in
  let extra_rows =
    List.concat_map
      (fun (v, lb, ub) ->
         let rows = ref [] in
         if lb > 0. then rows := ([ 1., v ], Simplex.Ge, lb) :: !rows;
         if ub < infinity then rows := ([ 1., v ], Simplex.Le, ub) :: !rows;
         !rows)
      bounds
  in
  let ub_rows = ref [] in
  Array.iteri
    (fun v ub ->
       if ub < infinity then ub_rows := ([ 1., v ], Simplex.Le, ub) :: !ub_rows)
    ubs;
  let all_rows =
    List.rev_map (fun r -> r.coeffs, r.rel, r.rhs) t.rows
    @ !ub_rows @ extra_rows
  in
  let m = List.length all_rows in
  let a = Array.make_matrix m n 0. in
  let rel = Array.make m Simplex.Eq in
  let b = Array.make m 0. in
  List.iteri
    (fun i (coeffs, r, rhs) ->
       List.iter (fun (c, v) -> a.(i).(v) <- a.(i).(v) +. c) coeffs;
       rel.(i) <- r;
       b.(i) <- rhs)
    all_rows;
  let c = Array.make n 0. in
  List.iter (fun (k, v) -> c.(v) <- c.(v) +. k) t.objective;
  Simplex.solve ~workspace ~budget ~sense:t.sense ~a ~rel ~b ~c
