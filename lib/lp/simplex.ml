type relation = Le | Ge | Eq

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded

(* Pivot, feasibility and tie tolerance. *)
let eps = 1e-9

(* A minimisation problem in bounded form: n structural columns with
   bounds [lo, hi], and one activity variable per row (column n + i)
   carrying the row's bounds, tied to the structurals by a_i·x − s_i = 0. *)
type lp = {
  m : int;
  n : int;
  a : float array array;
  c : float array;
  lo : float array;  (* n + m *)
  hi : float array;
}

let lp ~a ~rel ~b ~c ~ub =
  let m = Array.length a and n = Array.length c in
  if Array.length rel <> m || Array.length b <> m then
    invalid_arg "Simplex: row count mismatch";
  if Array.length ub <> n then invalid_arg "Simplex: bound count mismatch";
  Array.iter
    (fun row ->
       if Array.length row <> n then
         invalid_arg "Simplex: column count mismatch")
    a;
  let lo = Array.make (n + m) 0. and hi = Array.make (n + m) infinity in
  Array.blit ub 0 hi 0 n;
  Array.iteri
    (fun i r ->
       let k = n + i in
       match r with
       | Ge -> lo.(k) <- b.(i)
       | Le ->
         lo.(k) <- neg_infinity;
         hi.(k) <- b.(i)
       | Eq ->
         lo.(k) <- b.(i);
         hi.(k) <- b.(i))
    rel;
  { m; n; a; c; lo; hi }

(* Far above every solve measured: the largest, a root relaxation of
   one of Table III's router ROBDDs (699 rows, 271 columns), takes
   1,721 pivots. A solve that reaches it cycles. *)
let max_pivots = 100_000

exception Pivot_limit of { rows : int; cols : int }

let () =
  Printexc.register_printer (function
    | Pivot_limit { rows; cols } ->
      Some
        (Printf.sprintf
           "Lp.Simplex.Pivot_limit: a solve on %d rows and %d columns took \
            %d pivots"
           rows cols max_pivots)
    | _ -> None)

type workspace = {
  mutable spare : float array;  (* cells a released tableau left behind *)
  mutable nz : int array;  (* the pivot row's nonzero columns *)
  mutable pivots : int;
  mutable ceiling : int;  (* [pivots] at which the current solve stops *)
}

let workspace () = { spare = [||]; nz = [||]; pivots = 0; ceiling = max_int }
let pivots ws = ws.pivots

(* Where each column is: its row when basic, or the bound a nonbasic
   column sits at. Every column has a finite bound (structurals are
   non-negative, and a row's activity is bounded on its relation's
   side), so no nonbasic column is free. *)
let at_lower = -1
let at_upper = -2

(* The tableau of one basis. [cells] holds m + 1 rows of [w] = n + m
   columns, row-major: row i is B⁻¹ [A | −I], so Σ_j cells(i, j)·x_j = 0
   and each basic value is minus its row's nonbasic products; row m holds
   the reduced costs. Only the first (m + 1)·w cells are used. *)
type tableau = {
  lp : lp;
  w : int;
  cells : float array;
  basis : int array;
  where : int array;
  x : float array;
  lo : float array;
  hi : float array;
}

let floats t = Array.length t.cells + (3 * t.w)

(* Storage for [size] cells: the workspace's spare when it fits. *)
let cells_for ws size =
  if Array.length ws.spare >= size then begin
    let cells = ws.spare in
    ws.spare <- [||];
    cells
  end
  else Array.make size 0.

let release ws t =
  if Array.length t.cells > Array.length ws.spare then ws.spare <- t.cells

let copy ws t =
  let size = (t.lp.m + 1) * t.w in
  let cells = cells_for ws size in
  Array.blit t.cells 0 cells 0 size;
  {
    t with
    cells;
    basis = Array.copy t.basis;
    where = Array.copy t.where;
    x = Array.copy t.x;
    lo = Array.copy t.lo;
    hi = Array.copy t.hi;
  }

(* Move nonbasic column j to value v, carrying every basic value. *)
let move t j v =
  let delta = v -. t.x.(j) in
  if delta <> 0. then begin
    t.x.(j) <- v;
    let w = t.w in
    for i = 0 to t.lp.m - 1 do
      let a = t.cells.((i * w) + j) in
      if a <> 0. then begin
        let b = t.basis.(i) in
        t.x.(b) <- t.x.(b) -. (a *. delta)
      end
    done
  end

(* Nonbasic column j at the bound its reduced cost prefers, or at the
   other one when that is infinite. *)
let place t j =
  let d = t.cells.((t.lp.m * t.w) + j) in
  if (d < 0. && t.hi.(j) < infinity) || t.lo.(j) = neg_infinity then begin
    t.where.(j) <- at_upper;
    t.x.(j) <- t.hi.(j)
  end
  else begin
    t.where.(j) <- at_lower;
    t.x.(j) <- t.lo.(j)
  end

(* Every basic value from the nonbasic ones. *)
let recompute t =
  let w = t.w in
  for i = 0 to t.lp.m - 1 do
    let base = i * w in
    let s = ref 0. in
    for j = 0 to w - 1 do
      if t.where.(j) < 0 then begin
        let v = t.x.(j) in
        if v <> 0. then s := !s +. (t.cells.(base + j) *. v)
      end
    done;
    t.x.(t.basis.(i)) <- -. !s
  done

let start ws lp =
  let m = lp.m and n = lp.n in
  let w = n + m in
  let size = (m + 1) * w in
  let cells = cells_for ws size in
  Array.fill cells 0 size 0.;
  for i = 0 to m - 1 do
    let base = i * w and row = lp.a.(i) in
    for j = 0 to n - 1 do
      let v = row.(j) in
      if v <> 0. then cells.(base + j) <- -.v
    done;
    cells.(base + n + i) <- 1.
  done;
  Array.blit lp.c 0 cells (m * w) n;
  let t =
    {
      lp;
      w;
      cells;
      basis = Array.init m (fun i -> n + i);
      where = Array.init w (fun j -> if j < n then at_lower else j - n);
      x = Array.make w 0.;
      lo = Array.copy lp.lo;
      hi = Array.copy lp.hi;
    }
  in
  for j = 0 to n - 1 do
    place t j
  done;
  recompute t;
  t

let tighten t j ~lo ~hi =
  let lo = max t.lo.(j) lo and hi = min t.hi.(j) hi in
  t.lo.(j) <- lo;
  t.hi.(j) <- hi;
  let status = t.where.(j) in
  if status < 0 && lo <= hi then move t j (if status = at_lower then lo else hi)

(* How far basic value [v] lies outside [lo, hi]; 0 inside. *)
let violation lo hi v =
  if v < lo then lo -. v else if v > hi then v -. hi else 0.

(* Leaving row: the largest bound violation, lowest row on ties; under
   Bland's rule, the violated row whose basic column has the smallest
   index. -1 when the basis is primal feasible. *)
let leaving_row t ~bland =
  let best = ref (-1) and worst = ref eps in
  for i = 0 to t.lp.m - 1 do
    let b = t.basis.(i) in
    let v = violation t.lo.(b) t.hi.(b) t.x.(b) in
    if v > eps then
      if bland then begin
        if !best < 0 || b < t.basis.(!best) then best := i
      end
      else if v > !worst then begin
        worst := v;
        best := i
      end
  done;
  !best

(* Entering column for leaving row r, whose basic value moves up to its
   lower bound when [up], else down to its upper bound: among nonbasic,
   non-fixed columns that can move it that way, the smallest
   |d_j / α_rj|, ties to the largest |α_rj| and then the lowest index
   (under Bland's rule, straight to the lowest index). -1 when none can:
   the row proves the bounds infeasible. *)
let entering_col t r ~up ~bland =
  let w = t.w in
  let row = r * w and obj = t.lp.m * w in
  let best = ref (-1) and best_ratio = ref infinity and best_abs = ref 0. in
  for j = 0 to w - 1 do
    let status = t.where.(j) in
    if status < 0 && t.lo.(j) < t.hi.(j) then begin
      let a = t.cells.(row + j) in
      let a = if up then a else -.a in
      if (status = at_lower && a < -.eps) || (status = at_upper && a > eps)
      then begin
        let abs_a = abs_float a in
        let ratio = abs_float t.cells.(obj + j) /. abs_a in
        if ratio < !best_ratio -. eps then begin
          best := j;
          best_ratio := ratio;
          best_abs := abs_a
        end
        else if ratio <= !best_ratio +. eps && (not bland) && abs_a > !best_abs
        then begin
          best := j;
          best_ratio := min ratio !best_ratio;
          best_abs := abs_a
        end
      end
    end
  done;
  !best, !best_ratio

(* Basis change: column q enters at row r and the leaving column stops
   at bound [target] with status [status]. The budget is polled first,
   as one relaxation on a graph of a few hundred nodes can take minutes.

   A pivot row holds a few dozen nonzeros among hundreds of columns, so
   the row is divided and its nonzero columns recorded once, and every
   other row is updated at those columns only. *)
let pivot ~budget ws t ~r ~q ~target ~status =
  Resilience.Budget.check budget;
  if ws.pivots >= ws.ceiling then
    raise (Pivot_limit { rows = t.lp.m; cols = t.lp.n });
  ws.pivots <- ws.pivots + 1;
  let w = t.w and m = t.lp.m in
  let cells = t.cells in
  let row = r * w in
  let p = cells.(row + q) in
  let leaving = t.basis.(r) in
  (* Primal step: x_q moves so the leaving value lands on [target]. *)
  let delta = (t.x.(leaving) -. target) /. p in
  t.x.(q) <- t.x.(q) +. delta;
  for i = 0 to m - 1 do
    if i <> r then begin
      let a = cells.((i * w) + q) in
      if a <> 0. then begin
        let b = t.basis.(i) in
        t.x.(b) <- t.x.(b) -. (a *. delta)
      end
    end
  done;
  t.x.(leaving) <- target;
  t.where.(leaving) <- status;
  t.where.(q) <- r;
  t.basis.(r) <- q;
  if Array.length ws.nz < w then ws.nz <- Array.make w 0;
  let nz = ws.nz in
  let nnz = ref 0 in
  for j = 0 to w - 1 do
    let v = cells.(row + j) in
    if v <> 0. then begin
      cells.(row + j) <- v /. p;
      nz.(!nnz) <- j;
      incr nnz
    end
  done;
  let nnz = !nnz in
  for i = 0 to m do
    if i <> r then begin
      let base = i * w in
      let f = cells.(base + q) in
      if abs_float f > eps then
        for k = 0 to nnz - 1 do
          let j = nz.(k) in
          cells.(base + j) <- cells.(base + j) -. (f *. cells.(row + j))
        done;
      cells.(base + q) <- 0.
    end
  done

(* Degenerate (zero-ratio) pivots in a row before Bland's rule takes
   over; it stays on until a pivot changes the dual objective. *)
let bland_after = 5

(* The dual simplex from a dual feasible basis: `Optimal when the basis
   is primal feasible, `Infeasible when a leaving row has no entering
   column. *)
let dual ~budget ws t =
  let rec loop degenerate =
    let bland = degenerate >= bland_after in
    let r = leaving_row t ~bland in
    if r < 0 then `Optimal
    else begin
      let b = t.basis.(r) in
      let up = t.x.(b) < t.lo.(b) in
      let q, ratio = entering_col t r ~up ~bland in
      if q < 0 then `Infeasible
      else begin
        if up then pivot ~budget ws t ~r ~q ~target:t.lo.(b) ~status:at_lower
        else pivot ~budget ws t ~r ~q ~target:t.hi.(b) ~status:at_upper;
        loop (if ratio > eps then 0 else degenerate + 1)
      end
    end
  in
  loop 0

(* Make the basis dual feasible by moving each boxed nonbasic column to
   the bound its reduced cost prefers; false when some column with an
   infinite bound has the wrong sign. *)
let repair_signs t =
  let obj = t.lp.m * t.w in
  let ok = ref true in
  for j = 0 to t.w - 1 do
    let status = t.where.(j) in
    if status < 0 && t.lo.(j) < t.hi.(j) then begin
      let d = t.cells.(obj + j) in
      if d < -.eps && status = at_lower then
        if t.hi.(j) < infinity then begin
          t.where.(j) <- at_upper;
          move t j t.hi.(j)
        end
        else ok := false
      else if d > eps && status = at_upper then
        if t.lo.(j) > neg_infinity then begin
          t.where.(j) <- at_lower;
          move t j t.lo.(j)
        end
        else ok := false
    end
  done;
  !ok

let place_all t =
  for j = 0 to t.w - 1 do
    if t.where.(j) < 0 then place t j
  done;
  recompute t

(* c·x over the structurals. *)
let cost t =
  let s = ref 0. in
  for j = 0 to t.lp.n - 1 do
    s := !s +. (t.lp.c.(j) *. t.x.(j))
  done;
  !s

(* Dual phase 1 (Koberstein & Suhl's auxiliary problem): the same rows
   and costs over the box free [−1, 1], lower-bounded [0, 1],
   upper-bounded [−1, 0], boxed [0, 0]. Every basis is dual feasible
   there, and its optimum is minus the least total dual infeasibility:
   at 0 its basis is dual feasible for the real bounds, and the nonbasic
   columns move to those bounds. Returns whether it reached 0. *)
let phase1 ~budget ws t =
  let lo = Array.copy t.lo and hi = Array.copy t.hi in
  for j = 0 to t.w - 1 do
    let finite_lo = lo.(j) > neg_infinity and finite_hi = hi.(j) < infinity in
    t.lo.(j) <- (if finite_lo then 0. else -1.);
    t.hi.(j) <- (if finite_hi then 0. else 1.)
  done;
  place_all t;
  ignore (dual ~budget ws t);
  let value = cost t in
  Array.blit lo 0 t.lo 0 t.w;
  Array.blit hi 0 t.hi 0 t.w;
  let dual_feasible = value >= -.eps in
  if dual_feasible then place_all t;
  dual_feasible

let finish t =
  Optimal { objective = cost t; solution = Array.sub t.x 0 t.lp.n }

let optimise ~budget ws t =
  ws.ceiling <- ws.pivots + max_pivots;
  let empty = ref false in
  for j = 0 to t.w - 1 do
    if t.lo.(j) > t.hi.(j) then empty := true
  done;
  if !empty then Infeasible
  else if repair_signs t || phase1 ~budget ws t then
    match dual ~budget ws t with
    | `Optimal -> finish t
    | `Infeasible -> Infeasible
  else begin
    (* No basis is dual feasible: with zero costs the same iteration
       finds a feasible point (so the problem is unbounded) or proves
       there is none. *)
    Array.fill t.cells (t.lp.m * t.w) t.w 0.;
    place_all t;
    match dual ~budget ws t with
    | `Optimal -> Unbounded
    | `Infeasible -> Infeasible
  end

let solve ~workspace ~budget ~sense ~a ~rel ~b ~c =
  let c = match sense with `Minimize -> c | `Maximize -> Array.map ( ~-. ) c in
  let lp = lp ~a ~rel ~b ~c ~ub:(Array.make (Array.length c) infinity) in
  let t = start workspace lp in
  let outcome = optimise ~budget workspace t in
  release workspace t;
  match sense, outcome with
  | `Maximize, Optimal { objective; solution } ->
    Optimal { objective = -.objective; solution }
  | _ -> outcome

let minimize ~a ~rel ~b ~c =
  solve ~workspace:(workspace ()) ~budget:Resilience.Budget.unlimited
    ~sense:`Minimize ~a ~rel ~b ~c

let maximize ~a ~rel ~b ~c =
  solve ~workspace:(workspace ()) ~budget:Resilience.Budget.unlimited
    ~sense:`Maximize ~a ~rel ~b ~c
