(* The dense simplex as it stood before the sparse pivot and the shared
   workspace: every pivot updates every column of every touched row, and
   every solve allocates its own tableau. Kept as the reference that
   test_lp's differential battery holds Lp.Simplex to. *)

type relation = Lp.Simplex.relation = Le | Ge | Eq

type outcome = Lp.Simplex.outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded

let eps = 1e-9

(* The tableau has [m] constraint rows and one objective row (index m).
   Columns: structural variables, then slack/surplus, then artificials,
   then the right-hand side (last column). *)
type tableau = {
  rows : float array array;  (* (m+1) × (cols+1) *)
  basis : int array;  (* basic variable of each constraint row *)
  m : int;
  cols : int;  (* columns excluding RHS *)
  mutable banned_from : int;  (* columns ≥ this may not enter (artificials) *)
}

(* The budget is polled before every pivot: a pivot is a pass over the
   whole tableau, so a poll is noise beside it, and one relaxation on a
   graph of a few hundred nodes can take minutes. *)
let pivot ~budget t ~row ~col =
  Resilience.Budget.check budget;
  let prow = t.rows.(row) in
  let p = prow.(col) in
  for j = 0 to t.cols do
    prow.(j) <- prow.(j) /. p
  done;
  for i = 0 to t.m do
    if i <> row then begin
      let r = t.rows.(i) in
      let f = r.(col) in
      if abs_float f > eps then
        for j = 0 to t.cols do
          r.(j) <- r.(j) -. (f *. prow.(j))
        done
    end
  done;
  t.basis.(row) <- col

(* Bland's rule: entering column = smallest index with a negative reduced
   cost; leaving row = lexicographically smallest by (ratio, basis index). *)
let rec iterate ~budget t =
  let obj = t.rows.(t.m) in
  let entering = ref (-1) in
  (try
     for j = 0 to t.banned_from - 1 do
       if obj.(j) < -.eps then begin
         entering := j;
         raise Exit
       end
     done
   with Exit -> ());
  if !entering < 0 then `Optimal
  else begin
    let col = !entering in
    let leave = ref (-1) in
    let best = ref infinity in
    for i = 0 to t.m - 1 do
      let aij = t.rows.(i).(col) in
      if aij > eps then begin
        let ratio = t.rows.(i).(t.cols) /. aij in
        if
          ratio < !best -. eps
          || (ratio < !best +. eps && (!leave < 0 || t.basis.(i) < t.basis.(!leave)))
        then begin
          best := ratio;
          leave := i
        end
      end
    done;
    if !leave < 0 then `Unbounded
    else begin
      pivot ~budget t ~row:!leave ~col;
      iterate ~budget t
    end
  end

let phase2 ~budget t ~n ~c =
  let m = t.m and cols = t.cols in
  (* Rebuild the reduced-cost row for the real objective. *)
  let obj = t.rows.(m) in
  Array.fill obj 0 (cols + 1) 0.;
  for j = 0 to n - 1 do
    obj.(j) <- c.(j)
  done;
  for i = 0 to m - 1 do
    let cb = if t.basis.(i) < n then c.(t.basis.(i)) else 0. in
    if abs_float cb > eps then
      for j = 0 to cols do
        obj.(j) <- obj.(j) -. (cb *. t.rows.(i).(j))
      done
  done;
  match iterate ~budget t with
  | `Unbounded -> Unbounded
  | `Optimal ->
    let solution = Array.make n 0. in
    for i = 0 to m - 1 do
      if t.basis.(i) < n then solution.(t.basis.(i)) <- t.rows.(i).(cols)
    done;
    let objective =
      Array.to_list (Array.mapi (fun j x -> c.(j) *. x) solution)
      |> List.fold_left ( +. ) 0.
    in
    Optimal { objective; solution }

let minimize_within ~budget ~a ~rel ~b ~c =
  let m = Array.length a in
  if Array.length rel <> m || Array.length b <> m then
    invalid_arg "Simplex.minimize: row count mismatch";
  let n = Array.length c in
  Array.iter
    (fun row ->
       if Array.length row <> n then
         invalid_arg "Simplex.minimize: column count mismatch")
    a;
  (* Normalise to non-negative RHS. *)
  let flip r = match r with Le -> Ge | Ge -> Le | Eq -> Eq in
  let rows_in =
    Array.init m (fun i ->
        if b.(i) < 0. then
          Array.map (fun x -> -.x) a.(i), flip rel.(i), -.b.(i)
        else Array.copy a.(i), rel.(i), b.(i))
  in
  let num_slack =
    Array.fold_left
      (fun acc (_, r, _) -> match r with Le | Ge -> acc + 1 | Eq -> acc)
      0 rows_in
  in
  let num_art =
    Array.fold_left
      (fun acc (_, r, _) -> match r with Ge | Eq -> acc + 1 | Le -> acc)
      0 rows_in
  in
  let cols = n + num_slack + num_art in
  let t =
    {
      rows = Array.make_matrix (m + 1) (cols + 1) 0.;
      basis = Array.make m (-1);
      m;
      cols;
      banned_from = n + num_slack;
    }
  in
  let next_slack = ref n in
  let next_art = ref (n + num_slack) in
  Array.iteri
    (fun i (row, r, rhs) ->
       Array.blit row 0 t.rows.(i) 0 n;
       t.rows.(i).(cols) <- rhs;
       (match r with
        | Le ->
          t.rows.(i).(!next_slack) <- 1.;
          t.basis.(i) <- !next_slack;
          incr next_slack
        | Ge ->
          t.rows.(i).(!next_slack) <- -1.;
          incr next_slack;
          t.rows.(i).(!next_art) <- 1.;
          t.basis.(i) <- !next_art;
          incr next_art
        | Eq ->
          t.rows.(i).(!next_art) <- 1.;
          t.basis.(i) <- !next_art;
          incr next_art))
    rows_in;
  (* Phase 1: minimise the sum of artificials. The reduced-cost row starts
     as -(sum of rows whose basic variable is artificial). *)
  if num_art > 0 then begin
    let obj = t.rows.(m) in
    for j = n + num_slack to cols - 1 do
      obj.(j) <- 1.
    done;
    for i = 0 to m - 1 do
      if t.basis.(i) >= n + num_slack then
        for j = 0 to cols do
          obj.(j) <- obj.(j) -. t.rows.(i).(j)
        done
    done;
    t.banned_from <- n + num_slack;
    (match iterate ~budget t with
     | `Optimal -> ()
     | `Unbounded -> assert false (* phase 1 is bounded below by 0 *));
    if t.rows.(m).(cols) < -.eps then Infeasible
    else begin
      (* Pivot artificials out of the basis where possible. *)
      for i = 0 to m - 1 do
        if t.basis.(i) >= n + num_slack then begin
          let found = ref (-1) in
          (try
             for j = 0 to n + num_slack - 1 do
               if abs_float t.rows.(i).(j) > eps then begin
                 found := j;
                 raise Exit
               end
             done
           with Exit -> ());
          if !found >= 0 then pivot ~budget t ~row:i ~col:!found
          (* else: redundant row; the artificial stays basic at value 0 and
             can never re-enter with a positive value. *)
        end
      done;
      phase2 ~budget t ~n ~c
    end
  end
  else phase2 ~budget t ~n ~c

let solve ~budget ~sense ~a ~rel ~b ~c =
  match sense with
  | `Minimize -> minimize_within ~budget ~a ~rel ~b ~c
  | `Maximize ->
    let c = Array.map (fun x -> -.x) c in
    (match minimize_within ~budget ~a ~rel ~b ~c with
     | Optimal { objective; solution } ->
       Optimal { objective = -.objective; solution }
     | (Infeasible | Unbounded) as r -> r)

let minimize = solve ~budget:Resilience.Budget.unlimited ~sense:`Minimize
let maximize = solve ~budget:Resilience.Budget.unlimited ~sense:`Maximize
