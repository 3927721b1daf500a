open Numeric

(* Bounded-variable simplex with warm starts.

   The solver runs in three tiers, each sound, each strictly a fallback
   for the one before:

   1. [Fast] — the bounded-variable engine over {!Fastq} machine-word
      rationals. Any overflow raises and the solve is redone exactly.
   2. [Exact] — the same engine over {!Q} bignum rationals.
   3. [Dense] — the original two-phase dense primal simplex (variable
      substitution + artificial columns), kept verbatim as the fallback
      of last resort behind a pivot-budget guard.

   The engine itself differs from the dense path in three ways that
   matter on the contention ILPs:

   - Variable bounds are handled implicitly (nonbasic-at-lower/upper
     statuses and bound flips) instead of being rewritten into extra
     tableau rows, so a model with b bounded variables loses b rows and
     b slack columns compared to the dense construction.
   - There is no phase-1 artificial block: the all-slack basis is always
     dual feasible for the zero objective, so primal feasibility is
     established by a dual-simplex repair loop on the same tableau.
   - A solved tableau is a warm-start [state]: tightening variable
     bounds (what branch & bound does) keeps the basis dual feasible,
     so a child node re-optimises with a handful of dual pivots instead
     of a from-scratch solve. *)

(* Pivot/solve totals are deterministic: all pivoting rules are
   least-index (Bland), so totals are a function of the model stream
   alone, and the single-flight cache runs each distinct model through
   here the same number of times at any parallel degree. *)
let m_solves = Obs.Metrics.counter "ilp.simplex.solves"
let m_pivots = Obs.Metrics.counter "ilp.simplex.pivots"
let m_dual_pivots = Obs.Metrics.counter "ilp.simplex.dual_pivots"
let m_flips = Obs.Metrics.counter "ilp.simplex.bound_flips"
let m_infeasible = Obs.Metrics.counter "ilp.simplex.infeasible"
let m_unbounded = Obs.Metrics.counter "ilp.simplex.unbounded"
let m_fast_solves = Obs.Metrics.counter "ilp.simplex.fastpath_solves"
let m_fast_fallbacks = Obs.Metrics.counter "ilp.simplex.fastpath_fallbacks"
let m_dense_fallbacks = Obs.Metrics.counter "ilp.simplex.dense_fallbacks"

exception Stalled
(* Defensive pivot budget only: Bland's rule terminates, so [Stalled]
   firing means a bug — the caller falls back to a slower tier rather
   than looping. *)

(* ------------------------------------------------------------------ *)
(* Scalar abstraction: exact rationals and the machine-word fast path  *)
(* ------------------------------------------------------------------ *)

module type SCALAR = sig
  type t

  val zero : t
  val one : t
  val of_q : Q.t -> t (* may raise Fastq.Overflow *)
  val to_q : t -> Q.t
  val neg : t -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val sign : t -> int
  val is_zero : t -> bool
  val is_integer : t -> bool
  val floor : t -> t
  val compare : t -> t -> int
end

module Scalar_q : SCALAR with type t = Q.t = struct
  include Q

  let of_q q = q
  let to_q q = q
end

module Scalar_fast : SCALAR with type t = Fastq.t = struct
  include Fastq
end

(* ------------------------------------------------------------------ *)
(* Node bookkeeping in the engine's scalar                             *)
(* ------------------------------------------------------------------ *)

(* What branch & bound asks of every optimal node — its objective, the
   variable to branch on, and whether the floored point is a feasible
   incumbent — over the model's data converted once to the engine's
   scalar, so a node costs no bignum arithmetic. [x v] reads variable
   [v] of the point. On the fast scalar any step may raise
   [Fastq.Overflow], which restarts the search on the exact tier like
   an overflowing pivot; no ILP-PTAC model of the benchmark corpora or
   the test suites reaches that. *)
module Book (S : SCALAR) = struct
  type row = {
    vars : int array;
    coefs : S.t array;
    rhs : S.t; (* rhs minus the expression's constant *)
    sense : Model.sense;
  }

  type t = {
    obj : (int * S.t) array;
    obj_const : S.t;
    rows : row array;
    vlb : S.t option array; (* declared bounds *)
    vub : S.t option array;
    integer : bool array;
    preferred : int array; (* integer variables in the objective *)
    ints : int array;
  }

  let make model =
    let info = Array.init (Model.num_vars model) (Model.var_info model) in
    let _, obj = Model.objective model in
    let ints = Array.of_list (Model.integer_vars model) in
    let row (c : Model.constr) =
      let terms = Array.of_list (Linexpr.terms c.expr) in
      {
        vars = Array.map fst terms;
        coefs = Array.map (fun (_, q) -> S.of_q q) terms;
        rhs = S.of_q (Q.sub c.rhs (Linexpr.constant c.expr));
        sense = c.csense;
      }
    in
    {
      obj = Array.of_list (List.map (fun (v, c) -> (v, S.of_q c)) (Linexpr.terms obj));
      obj_const = S.of_q (Linexpr.constant obj);
      rows = Array.of_list (List.map row (Model.constraints model));
      vlb = Array.map (fun (i : Model.var_info) -> Option.map S.of_q i.lb) info;
      vub = Array.map (fun (i : Model.var_info) -> Option.map S.of_q i.ub) info;
      integer = Array.map (fun (i : Model.var_info) -> i.integer) info;
      preferred =
        Array.of_list
          (List.filter (fun v -> not (Q.is_zero (Linexpr.coeff obj v)))
             (Array.to_list ints));
      ints;
    }

  let objective b x =
    S.to_q
      (Array.fold_left (fun acc (v, c) -> S.add acc (S.mul c (x v))) b.obj_const b.obj)

  let half = S.div S.one (S.add S.one S.one)

  (* The fractional variable of [vars] closest to half-integral, the
     first one on ties; -1 when all are integral. *)
  let pick x vars =
    let best = ref (-1) and bdist = ref S.zero in
    Array.iter
      (fun v ->
         let xv = x v in
         let f = S.sub xv (S.floor xv) in
         if not (S.is_zero f) then begin
           let d = S.sub f half in
           let dist = if S.sign d < 0 then S.neg d else d in
           if !best < 0 || S.compare dist !bdist < 0 then begin
             best := v;
             bdist := dist
           end
         end)
      vars;
    !best

  (* Branching variable and the floor of its value. Variables with a
     non-zero objective coefficient come first: ties in the relaxation
     otherwise make the search wander over fractional splits that
     cannot change the bound. *)
  let most_fractional b x =
    let v = pick x b.preferred in
    let v = if v >= 0 then v else pick x b.ints in
    if v < 0 then None else Some (v, S.to_q (S.floor (x v)))

  (* [Model.check_feasible m x = Ok _], without building its messages. *)
  let feasible b x =
    let within v =
      let xv = x v in
      (match b.vlb.(v) with Some l -> S.compare xv l >= 0 | None -> true)
      && (match b.vub.(v) with Some u -> S.compare xv u <= 0 | None -> true)
      && ((not b.integer.(v)) || S.is_integer xv)
    in
    let holds r =
      let lhs = ref S.zero in
      Array.iteri (fun k v -> lhs := S.add !lhs (S.mul r.coefs.(k) (x v))) r.vars;
      let c = S.compare !lhs r.rhs in
      match r.sense with Model.Le -> c <= 0 | Model.Ge -> c >= 0 | Model.Eq -> c = 0
    in
    let rec all p i n = i >= n || (p i && all p (i + 1) n) in
    all within 0 (Array.length b.integer)
    && all (fun i -> holds b.rows.(i)) 0 (Array.length b.rows)

  (* Rounding heuristic: flooring a relaxation point keeps every
     non-negative <=-constraint satisfied, so it often yields a feasible
     integer point for free. [Some (objective, point)] when it is
     feasible and [beats] its objective. *)
  let floor_incumbent b x ~beats =
    let fl =
      Array.init (Array.length b.integer) (fun v ->
          if b.integer.(v) then S.floor (x v) else x v)
    in
    let x = Array.get fl in
    if not (feasible b x) then None
    else
      let o = objective b x in
      if beats o then Some (o, Array.map S.to_q fl) else None
end

module Book_q = Book (Scalar_q)

(* ------------------------------------------------------------------ *)
(* The bounded-variable engine                                         *)
(* ------------------------------------------------------------------ *)

module type ENGINE = sig
  type state

  val root :
    Model.t -> lb:Q.t option array -> ub:Q.t option array ->
    state option * Solution.t
  (** Cold solve. A state is returned exactly when the solution is
      [Optimal]; it sits at the optimal basis and can seed
      {!branch}/{!resolve}. *)

  val root_certified :
    Model.t -> lb:Q.t option array -> ub:Q.t option array ->
    state option * Solution.t * Cert.lp_cert option
  (** {!root} plus the answer's certificate. The tableau engines always
      certify; the dense fallback returns [None]. *)

  val branch : state -> state
  (** Deep copy: the warm-start tree discipline is copy-on-branch, so a
      parent's factorized tableau survives its first child's pivots. *)

  val resolve : state -> lb:Q.t option array -> ub:Q.t option array -> bool
  (** Dual-simplex re-solve after tightening bounds (in place): [true]
      when the state sits at an optimal basis of the new box. The new
      box must be contained in the one the state was last solved with;
      this is exactly the branch & bound discipline. *)

  val tighten : state -> Model.var -> lower:bool -> Q.t -> bool
  (** {!resolve} under the state's box with one bound of one variable
      replaced by a tighter one. *)

  val certificate : state -> Cert.lp_cert option
  (** The last solve's certificate: optimal duals, or the Farkas proof
      of an infeasible re-solve. *)

  (** {2 Node bookkeeping on an optimal state} *)

  val objective : state -> Q.t
  val values : state -> Q.t array
  val most_fractional : state -> (Model.var * Q.t) option
  val floor_incumbent :
    state -> beats:(Q.t -> bool) -> (Q.t * Q.t array) option

  val feasible : Model.t -> Q.t array -> bool
end

type vstatus = Basic | At_lower | At_upper | Free_zero

(* How a state's last solve ended: what {!ENGINE.certificate} reads. *)
type last = Solved | Empty_box of int | Dual_infeasible of int

module Engine (S : SCALAR) : ENGINE = struct
  module B = Book (S)

  type state = {
    model : Model.t;
    book : B.t;
    n_struct : int;
    m : int;
    n_total : int;
    tab : S.t array array; (* m x n_total: B^-1 A *)
    rho : S.t array; (* m: B^-1 b *)
    basis : int array; (* row -> basic column *)
    pos : int array; (* column -> row, -1 when nonbasic *)
    status : vstatus array; (* per column *)
    xval : S.t array; (* per column: value when nonbasic *)
    beta : S.t array; (* per row: value of its basic column *)
    cost : S.t array; (* reduced costs (minimisation form) *)
    lb : S.t option array; (* per column *)
    ub : S.t option array;
    mutable budget : int; (* anti-stall pivot budget *)
    mutable last : last;
  }

  let copy st =
    {
      st with
      tab = Array.map Array.copy st.tab;
      rho = Array.copy st.rho;
      basis = Array.copy st.basis;
      pos = Array.copy st.pos;
      status = Array.copy st.status;
      xval = Array.copy st.xval;
      beta = Array.copy st.beta;
      cost = Array.copy st.cost;
      lb = Array.copy st.lb;
      ub = Array.copy st.ub;
    }

  let branch = copy

  let fixed st j =
    match (st.lb.(j), st.ub.(j)) with
    | Some l, Some u -> S.compare l u = 0
    | _ -> false

  let spend st =
    st.budget <- st.budget - 1;
    if st.budget < 0 then raise Stalled

  (* Shared pivot: normalise row [r] on column [c], eliminate [c] from
     every other row, the rhs column and the cost row, and swap the
     basis bookkeeping. The caller has already updated [beta] and the
     leaving column's status/value. *)
  let pivot_rows st r c =
    let prow = st.tab.(r) in
    let p = prow.(c) in
    if S.compare p S.one <> 0 then begin
      let inv = S.div S.one p in
      for j = 0 to st.n_total - 1 do
        if not (S.is_zero prow.(j)) then prow.(j) <- S.mul prow.(j) inv
      done;
      st.rho.(r) <- S.mul st.rho.(r) inv
    end;
    for i = 0 to st.m - 1 do
      if i <> r then begin
        let f = st.tab.(i).(c) in
        if not (S.is_zero f) then begin
          let irow = st.tab.(i) in
          for j = 0 to st.n_total - 1 do
            if not (S.is_zero prow.(j)) then
              irow.(j) <- S.sub irow.(j) (S.mul f prow.(j))
          done;
          st.rho.(i) <- S.sub st.rho.(i) (S.mul f st.rho.(r))
        end
      end
    done;
    let f = st.cost.(c) in
    if not (S.is_zero f) then
      for j = 0 to st.n_total - 1 do
        if not (S.is_zero prow.(j)) then
          st.cost.(j) <- S.sub st.cost.(j) (S.mul f prow.(j))
      done;
    let leaving = st.basis.(r) in
    st.pos.(leaving) <- -1;
    st.basis.(r) <- c;
    st.pos.(c) <- r;
    st.status.(c) <- Basic

  (* --- dual simplex: restore primal feasibility --------------------- *)

  (* The current basis is dual feasible (reduced-cost signs match the
     nonbasic statuses); drive every basic value back inside its bounds.
     Returns [`Feasible] or [`Infeasible r] where [r] is the tableau row
     whose basic variable cannot be repaired — row [r] of B^-1 is then a
     Farkas witness. *)
  let dual_loop st =
    let result = ref None in
    while !result = None do
      (* leaving: smallest basic variable whose value violates a bound *)
      let r = ref (-1) in
      let below = ref false in
      for i = st.m - 1 downto 0 do
        let b = st.basis.(i) in
        let viol_low =
          match st.lb.(b) with
          | Some l -> S.compare st.beta.(i) l < 0
          | None -> false
        and viol_up =
          match st.ub.(b) with
          | Some u -> S.compare st.beta.(i) u > 0
          | None -> false
        in
        if viol_low || viol_up then
          if !r < 0 || b < st.basis.(!r) then begin
            r := i;
            below := viol_low
          end
      done;
      if !r < 0 then result := Some `Feasible
      else begin
        let r = !r and below = !below in
        let row = st.tab.(r) in
        (* entering: among sign-eligible nonbasic columns, the one whose
           reduced-cost ratio is closest to zero (dual ratio test), ties
           to the smallest column index (Bland) *)
        let best = ref (-1) in
        let best_num = ref S.zero and best_den = ref S.one in
        for j = st.n_total - 1 downto 0 do
          if st.pos.(j) < 0 && not (fixed st j) then begin
            let a = row.(j) in
            let sa = S.sign a in
            let eligible =
              sa <> 0
              && (match st.status.(j) with
                  | At_lower -> if below then sa < 0 else sa > 0
                  | At_upper -> if below then sa > 0 else sa < 0
                  | Free_zero -> true
                  | Basic -> false)
            in
            if eligible then
              (* compare |d_j / a_j| <= |best| as |d_j * best_den| <=
                 |best_num * a_j| — exact, no division *)
              let lhs = S.mul (st.cost.(j)) !best_den
              and rhs = S.mul !best_num a in
              let abs x = if S.sign x < 0 then S.neg x else x in
              if !best < 0 || S.compare (abs lhs) (abs rhs) <= 0 then begin
                best := j;
                best_num := st.cost.(j);
                best_den := a
              end
          end
        done;
        if !best < 0 then result := Some (`Infeasible r)
        else begin
          let c = !best in
          spend st;
          Obs.Metrics.incr m_pivots;
          Obs.Metrics.incr m_dual_pivots;
          let b = st.basis.(r) in
          let target =
            if below then Option.get st.lb.(b) else Option.get st.ub.(b)
          in
          let alpha = row.(c) in
          let delta = S.div (S.sub st.beta.(r) target) alpha in
          for i = 0 to st.m - 1 do
            if not (S.is_zero st.tab.(i).(c)) then
              st.beta.(i) <- S.sub st.beta.(i) (S.mul st.tab.(i).(c) delta)
          done;
          let entering_value = S.add st.xval.(c) delta in
          st.status.(b) <- (if below then At_lower else At_upper);
          st.xval.(b) <- target;
          pivot_rows st r c;
          st.beta.(r) <- entering_value
        end
      end
    done;
    match !result with Some x -> x | None -> assert false

  (* --- primal simplex with bound flips ------------------------------ *)

  let primal_loop st =
    let result = ref None in
    while !result = None do
      (* entering: smallest improving nonbasic column (Bland) *)
      let enter = ref (-1) in
      (try
         for j = 0 to st.n_total - 1 do
           if st.pos.(j) < 0 && not (fixed st j) then begin
             let d = S.sign st.cost.(j) in
             let improving =
               match st.status.(j) with
               | At_lower -> d < 0
               | At_upper -> d > 0
               | Free_zero -> d <> 0
               | Basic -> false
             in
             if improving then begin
               enter := j;
               raise Exit
             end
           end
         done
       with Exit -> ());
      if !enter < 0 then result := Some `Optimal
      else begin
        let c = !enter in
        (* direction: increase from a lower bound, decrease from an
           upper; a free column moves against its reduced cost *)
        let up =
          match st.status.(c) with
          | At_lower -> true
          | At_upper -> false
          | Free_zero | Basic -> S.sign st.cost.(c) < 0
        in
        (* ratio test over the rows; [best_t] is the step length *)
        let best = ref (-1) in
        let best_t = ref S.zero in
        let best_to_lower = ref true in
        for i = 0 to st.m - 1 do
          let a = st.tab.(i).(c) in
          if S.sign a <> 0 then begin
            (* basic value changes by -a*t when increasing, +a*t when
               decreasing the entering column *)
            let decreasing = if up then S.sign a > 0 else S.sign a < 0 in
            let b = st.basis.(i) in
            let limit =
              if decreasing then
                match st.lb.(b) with
                | Some l ->
                  let gap = S.sub st.beta.(i) l in
                  let rate = if up then a else S.neg a in
                  Some (S.div gap rate, true)
                | None -> None
              else
                match st.ub.(b) with
                | Some u ->
                  let gap = S.sub u st.beta.(i) in
                  let rate = if up then S.neg a else a in
                  Some (S.div gap rate, false)
                | None -> None
            in
            match limit with
            | None -> ()
            | Some (t, to_lower) ->
              if
                !best < 0
                || S.compare t !best_t < 0
                || (S.compare t !best_t = 0 && b < st.basis.(!best))
              then begin
                best := i;
                best_t := t;
                best_to_lower := to_lower
              end
          end
        done;
        (* the entering column's own opposite bound *)
        let own =
          match (st.status.(c), st.lb.(c), st.ub.(c)) with
          | At_lower, Some l, Some u -> Some (S.sub u l)
          | At_upper, Some l, Some u -> Some (S.sub u l)
          | _ -> None
        in
        let flip =
          match own with
          | Some span when !best < 0 || S.compare span !best_t < 0 ->
            Some span
          | _ -> None
        in
        match flip with
        | Some span ->
          spend st;
          Obs.Metrics.incr m_flips;
          let signed = if up then span else S.neg span in
          for i = 0 to st.m - 1 do
            if not (S.is_zero st.tab.(i).(c)) then
              st.beta.(i) <- S.sub st.beta.(i) (S.mul st.tab.(i).(c) signed)
          done;
          (match st.status.(c) with
           | At_lower ->
             st.status.(c) <- At_upper;
             st.xval.(c) <- Option.get st.ub.(c)
           | At_upper ->
             st.status.(c) <- At_lower;
             st.xval.(c) <- Option.get st.lb.(c)
           | Basic | Free_zero -> assert false)
        | None ->
          if !best < 0 then result := Some (`Unbounded (c, up))
          else begin
            let r = !best in
            spend st;
            Obs.Metrics.incr m_pivots;
            let t = !best_t in
            let signed = if up then t else S.neg t in
            for i = 0 to st.m - 1 do
              if not (S.is_zero st.tab.(i).(c)) then
                st.beta.(i) <- S.sub st.beta.(i) (S.mul st.tab.(i).(c) signed)
            done;
            let entering_value = S.add st.xval.(c) signed in
            let b = st.basis.(r) in
            st.status.(b) <- (if !best_to_lower then At_lower else At_upper);
            st.xval.(b) <-
              (if !best_to_lower then Option.get st.lb.(b)
               else Option.get st.ub.(b));
            pivot_rows st r c;
            st.beta.(r) <- entering_value
          end
      end
    done;
    match !result with Some x -> x | None -> assert false

  (* --- solution and certificate extraction -------------------------- *)

  let values_of st =
    Array.init st.n_struct (fun v ->
        if st.pos.(v) >= 0 then S.to_q st.beta.(st.pos.(v))
        else S.to_q st.xval.(v))

  let extract st =
    let values = values_of st in
    let _, obj = Model.objective st.model in
    let objective = Linexpr.eval obj (fun v -> values.(v)) in
    Solution.Optimal { objective; values }

  (* Dual certificate at an optimal basis. The engine always minimises
     the negated maximisation objective, so the reduced cost stored on
     slack column [i] is exactly the maximisation-frame row multiplier
     y_i the checker expects: no extra bookkeeping, just a read. *)
  let duals_of st =
    Array.init st.m (fun i -> S.to_q st.cost.(st.n_struct + i))

  (* Farkas certificate from a dual-infeasible row [r]: the slack
     entries of tableau row [r] are e_r . B^-1, i.e. the row multipliers
     whose combination the checker re-evaluates against the box. *)
  let farkas_of st r =
    Array.init st.m (fun i -> S.to_q st.tab.(r).(st.n_struct + i))

  (* Recession direction when column [c] enters unboundedly (moving up
     or down): the entering column changes by sigma, each basic column
     compensates by -sigma * tab.(i).(c). *)
  let ray_of st c up =
    let sigma = if up then S.one else S.neg S.one in
    Array.init st.n_struct (fun v ->
        let base = if v = c then sigma else S.zero in
        if st.pos.(v) >= 0 then
          S.to_q (S.sub base (S.mul sigma st.tab.(st.pos.(v)).(c)))
        else S.to_q base)

  (* --- bound installation ------------------------------------------- *)

  (* Smallest variable whose box is empty, if any (the [Farkas_box]
     certificate for trivially infeasible boxes). *)
  let empty_var ~lb ~ub =
    let nv = Array.length lb in
    let bad = ref (-1) in
    for v = nv - 1 downto 0 do
      match (lb.(v), ub.(v)) with
      | Some l, Some u when Q.compare l u > 0 -> bad := v
      | _ -> ()
    done;
    if !bad < 0 then None else Some !bad

  (* Install a (tighter) box over the structural columns and re-anchor
     every nonbasic column on a bound of the new box. Statuses are
     preserved where still meaningful, which is what keeps the basis
     dual feasible across branch & bound's bound tightenings. *)
  let set_bounds st ~lb ~ub =
    for v = 0 to st.n_struct - 1 do
      st.lb.(v) <- Option.map S.of_q lb.(v);
      st.ub.(v) <- Option.map S.of_q ub.(v)
    done;
    for j = 0 to st.n_total - 1 do
      if st.pos.(j) < 0 then begin
        match st.status.(j) with
        | At_lower -> st.xval.(j) <- Option.get st.lb.(j)
        | At_upper -> st.xval.(j) <- Option.get st.ub.(j)
        | Free_zero ->
          (* a formerly free column that acquired a bound anchors there;
             its reduced cost is 0 at a warm start, so either side keeps
             dual feasibility *)
          (match (st.lb.(j), st.ub.(j)) with
           | Some l, _ ->
             st.status.(j) <- At_lower;
             st.xval.(j) <- l
           | None, Some u ->
             st.status.(j) <- At_upper;
             st.xval.(j) <- u
           | None, None -> st.xval.(j) <- S.zero)
        | Basic -> assert false
      end
    done;
    (* beta = rho - tab * xval over the nonbasic columns *)
    for i = 0 to st.m - 1 do
      st.beta.(i) <- st.rho.(i)
    done;
    for j = 0 to st.n_total - 1 do
      if st.pos.(j) < 0 && not (S.is_zero st.xval.(j)) then begin
        let x = st.xval.(j) in
        for i = 0 to st.m - 1 do
          if not (S.is_zero st.tab.(i).(j)) then
            st.beta.(i) <- S.sub st.beta.(i) (S.mul st.tab.(i).(j) x)
        done
      end
    done

  (* --- cold build --------------------------------------------------- *)

  let build model ~lb:lbq ~ub:ubq =
    let nv = Model.num_vars model in
    let constrs = Array.of_list (Model.constraints model) in
    let m = Array.length constrs in
    let n_total = nv + m in
    let tab = Array.init m (fun _ -> Array.make n_total S.zero) in
    let rho = Array.make m S.zero in
    let lb = Array.make n_total None and ub = Array.make n_total None in
    for v = 0 to nv - 1 do
      lb.(v) <- Option.map S.of_q lbq.(v);
      ub.(v) <- Option.map S.of_q ubq.(v)
    done;
    Array.iteri
      (fun i (c : Model.constr) ->
         List.iter
           (fun (v, coef) -> tab.(i).(v) <- S.of_q coef)
           (Linexpr.terms c.expr);
         let s = nv + i in
         tab.(i).(s) <- S.one;
         rho.(i) <- S.of_q (Q.sub c.rhs (Linexpr.constant c.expr));
         (* slack bounds encode the sense of [expr + s = rhs] *)
         (match c.csense with
          | Model.Le -> lb.(s) <- Some S.zero
          | Model.Ge -> ub.(s) <- Some S.zero
          | Model.Eq ->
            lb.(s) <- Some S.zero;
            ub.(s) <- Some S.zero))
      constrs;
    let basis = Array.init m (fun i -> nv + i) in
    let pos = Array.make n_total (-1) in
    Array.iteri (fun i c -> pos.(c) <- i) basis;
    let status = Array.make n_total Free_zero in
    let xval = Array.make n_total S.zero in
    for j = 0 to n_total - 1 do
      if pos.(j) >= 0 then status.(j) <- Basic
      else
        match (lb.(j), ub.(j)) with
        | Some l, _ ->
          status.(j) <- At_lower;
          xval.(j) <- l
        | None, Some u ->
          status.(j) <- At_upper;
          xval.(j) <- u
        | None, None -> status.(j) <- Free_zero
    done;
    let beta = Array.make m S.zero in
    let st =
      {
        model;
        n_struct = nv;
        m;
        n_total;
        tab;
        rho;
        basis;
        pos;
        status;
        xval;
        beta;
        cost = Array.make n_total S.zero;
        lb;
        ub;
        budget = 0;
        last = Solved;
        book = B.make model;
      }
    in
    (* beta from the all-slack basis *)
    for i = 0 to m - 1 do
      beta.(i) <- rho.(i)
    done;
    for j = 0 to nv - 1 do
      if not (S.is_zero xval.(j)) then
        for i = 0 to m - 1 do
          if not (S.is_zero tab.(i).(j)) then
            beta.(i) <- S.sub beta.(i) (S.mul tab.(i).(j) xval.(j))
        done
    done;
    st

  let budget_for st = 2000 + (64 * (st.m + 1) * (st.n_total + 1))

  (* Reduced costs of the (minimisation-form) objective over the current
     basis; the basis columns of [tab] are unit columns, so one sweep of
     row subtractions zeroes every basic entry. *)
  let install_cost st =
    let dir, obj = Model.objective st.model in
    Array.fill st.cost 0 st.n_total S.zero;
    let negate = match dir with Model.Minimize -> false | Model.Maximize -> true in
    List.iter
      (fun (v, c) ->
         let c = S.of_q c in
         st.cost.(v) <- (if negate then S.neg c else c))
      (Linexpr.terms obj);
    for i = 0 to st.m - 1 do
      let f = st.cost.(st.basis.(i)) in
      if not (S.is_zero f) then begin
        let row = st.tab.(i) in
        for j = 0 to st.n_total - 1 do
          if not (S.is_zero row.(j)) then
            st.cost.(j) <- S.sub st.cost.(j) (S.mul f row.(j))
        done
      end
    done

  let root_certified model ~lb ~ub =
    Obs.Metrics.incr m_solves;
    if Array.length lb <> Model.num_vars model
       || Array.length ub <> Model.num_vars model
    then invalid_arg "Simplex: bound array length mismatch";
    match empty_var ~lb ~ub with
    | Some v -> (None, Solution.Infeasible, Some (Cert.Farkas_box v))
    | None ->
      let st = build model ~lb ~ub in
      st.budget <- budget_for st;
      (* phase 1: all reduced costs are zero, so the basis is trivially
         dual feasible — dual pivots repair primal feasibility *)
      (match dual_loop st with
       | `Infeasible r ->
         (None, Solution.Infeasible, Some (Cert.Farkas_ray (farkas_of st r)))
       | `Feasible -> (
           install_cost st;
           match primal_loop st with
           | `Unbounded (c, up) ->
             ( None,
               Solution.Unbounded,
               Some
                 (Cert.Unbounded_cert
                    { point = values_of st; ray = ray_of st c up }) )
           | `Optimal ->
             (Some st, extract st, Some (Cert.Optimal_cert { duals = duals_of st }))))

  let root model ~lb ~ub =
    let st, sol, _ = root_certified model ~lb ~ub in
    (st, sol)

  (* The dual loop after a bound change, recording how it ended. *)
  let settle st =
    st.budget <- budget_for st;
    match dual_loop st with
    | `Infeasible r ->
      st.last <- Dual_infeasible r;
      false
    | `Feasible ->
      st.last <- Solved;
      true

  let resolve st ~lb ~ub =
    Obs.Metrics.incr m_solves;
    match empty_var ~lb ~ub with
    | Some v ->
      st.last <- Empty_box v;
      false
    | None ->
      set_bounds st ~lb ~ub;
      settle st

  (* Only [v]'s bound moves, so only [v]'s anchor can: [set_bounds]
     without re-reading the rest of the box, and the basic values move
     by [v]'s column times its shift. *)
  let tighten st v ~lower bound =
    Obs.Metrics.incr m_solves;
    let b = S.of_q bound in
    if lower then st.lb.(v) <- Some b else st.ub.(v) <- Some b;
    match (st.lb.(v), st.ub.(v)) with
    | Some l, Some u when S.compare l u > 0 ->
      st.last <- Empty_box v;
      false
    | _ ->
      if st.pos.(v) < 0 then begin
        let x =
          match (st.status.(v), st.lb.(v), st.ub.(v)) with
          | At_lower, Some l, _ -> l
          | At_upper, _, Some u -> u
          | Free_zero, Some l, _ ->
            st.status.(v) <- At_lower;
            l
          | Free_zero, None, Some u ->
            st.status.(v) <- At_upper;
            u
          | _ -> assert false
        in
        let shift = S.sub x st.xval.(v) in
        st.xval.(v) <- x;
        if not (S.is_zero shift) then
          for i = 0 to st.m - 1 do
            if not (S.is_zero st.tab.(i).(v)) then
              st.beta.(i) <- S.sub st.beta.(i) (S.mul st.tab.(i).(v) shift)
          done
      end;
      settle st

  let certificate st =
    Some
      (match st.last with
       | Solved -> Cert.Optimal_cert { duals = duals_of st }
       | Empty_box v -> Cert.Farkas_box v
       | Dual_infeasible r -> Cert.Farkas_ray (farkas_of st r))

  let value st v = if st.pos.(v) >= 0 then st.beta.(st.pos.(v)) else st.xval.(v)
  let values = values_of

  let objective st = B.objective st.book (value st)
  let most_fractional st = B.most_fractional st.book (value st)
  let floor_incumbent st ~beats = B.floor_incumbent st.book (value st) ~beats
  let feasible model x = B.feasible (B.make model) (fun v -> S.of_q x.(v))
end

module Fast_engine = Engine (Scalar_fast)
module Exact_engine = Engine (Scalar_q)

(* ------------------------------------------------------------------ *)
(* Dense fallback: the original two-phase primal simplex               *)
(* ------------------------------------------------------------------ *)

type row = { coeffs : Q.t array; rhs : Q.t; sense : Model.sense }

(* How a model variable maps onto non-negative tableau columns. *)
type colmap =
  | Shifted of int * Q.t (* x = shift + col,  col >= 0 *)
  | Mirrored of int * Q.t (* x = shift - col,  col >= 0 *)
  | Split of int * int (* x = col_pos - col_neg *)

let dense_solve_with_bounds model ~lb ~ub =
  Obs.Metrics.incr m_solves;
  let nv = Model.num_vars model in
  if Array.length lb <> nv || Array.length ub <> nv then
    invalid_arg "Simplex.solve_with_bounds: bound array length mismatch";
  (* Detect empty boxes before any algebra. *)
  let infeasible_box = ref false in
  for v = 0 to nv - 1 do
    match (lb.(v), ub.(v)) with
    | Some l, Some u when Q.compare l u > 0 -> infeasible_box := true
    | _ -> ()
  done;
  if !infeasible_box then Solution.Infeasible
  else begin
    (* --- step 1: column mapping ---------------------------------------- *)
    let ncols = ref 0 in
    let fresh () =
      let c = !ncols in
      incr ncols;
      c
    in
    let extra_rows = ref [] in
    let map =
      Array.init nv (fun v ->
          match (lb.(v), ub.(v)) with
          | Some l, Some u ->
            let c = fresh () in
            (* col <= u - l *)
            extra_rows := (c, Q.sub u l) :: !extra_rows;
            Shifted (c, l)
          | Some l, None -> Shifted (fresh (), l)
          | None, Some u -> Mirrored (fresh (), u)
          | None, None ->
            let p = fresh () in
            let n = fresh () in
            Split (p, n))
    in
    (* Rewrites [coef * x_v] into tableau columns; returns the constant that
       the substitution moves to the left-hand side. *)
    let apply_term coeffs v coef =
      match map.(v) with
      | Shifted (c, shift) ->
        coeffs.(c) <- Q.add coeffs.(c) coef;
        Q.mul coef shift
      | Mirrored (c, shift) ->
        coeffs.(c) <- Q.sub coeffs.(c) coef;
        Q.mul coef shift
      | Split (p, n) ->
        coeffs.(p) <- Q.add coeffs.(p) coef;
        coeffs.(n) <- Q.sub coeffs.(n) coef;
        Q.zero
    in
    let n_struct = !ncols in
    let transform_expr expr =
      let coeffs = Array.make n_struct Q.zero in
      let const = ref (Linexpr.constant expr) in
      List.iter
        (fun (v, c) -> const := Q.add !const (apply_term coeffs v c))
        (Linexpr.terms expr);
      (coeffs, !const)
    in
    (* --- step 2: rows --------------------------------------------------- *)
    let rows = ref [] in
    List.iter
      (fun (c : Model.constr) ->
         let coeffs, const = transform_expr c.expr in
         rows := { coeffs; rhs = Q.sub c.rhs const; sense = c.csense } :: !rows)
      (Model.constraints model);
    List.iter
      (fun (col, bound) ->
         let coeffs = Array.make n_struct Q.zero in
         coeffs.(col) <- Q.one;
         rows := { coeffs; rhs = bound; sense = Model.Le } :: !rows)
      !extra_rows;
    (* Normalise every row to rhs >= 0; negating a row flips its sense. *)
    let normalise r =
      if Q.sign r.rhs >= 0 then r
      else
        {
          coeffs = Array.map Q.neg r.coeffs;
          rhs = Q.neg r.rhs;
          sense =
            (match r.sense with
             | Model.Le -> Model.Ge
             | Model.Ge -> Model.Le
             | Model.Eq -> Model.Eq);
        }
    in
    let rows = Array.of_list (List.rev_map normalise !rows) in
    let m = Array.length rows in
    let dir, obj_expr = Model.objective model in
    let obj_coeffs, obj_const = transform_expr obj_expr in
    (* --- step 3: slack / artificial columns ----------------------------- *)
    let n_slack =
      Array.fold_left
        (fun acc r ->
           match r.sense with Model.Le | Model.Ge -> acc + 1 | Model.Eq -> acc)
        0 rows
    in
    let n_art =
      Array.fold_left
        (fun acc r ->
           match r.sense with Model.Ge | Model.Eq -> acc + 1 | Model.Le -> acc)
        0 rows
    in
    let n_total = n_struct + n_slack + n_art in
    let tab = Array.make_matrix m n_total Q.zero in
    let rhs = Array.make m Q.zero in
    let basis = Array.make m (-1) in
    let is_art = Array.make n_total false in
    let next_slack = ref n_struct in
    let next_art = ref (n_struct + n_slack) in
    Array.iteri
      (fun i r ->
         Array.blit r.coeffs 0 tab.(i) 0 n_struct;
         rhs.(i) <- r.rhs;
         (match r.sense with
          | Model.Le ->
            let s = !next_slack in
            incr next_slack;
            tab.(i).(s) <- Q.one;
            basis.(i) <- s
          | Model.Ge ->
            let s = !next_slack in
            incr next_slack;
            tab.(i).(s) <- Q.minus_one;
            let a = !next_art in
            incr next_art;
            tab.(i).(a) <- Q.one;
            is_art.(a) <- true;
            basis.(i) <- a
          | Model.Eq ->
            let a = !next_art in
            incr next_art;
            tab.(i).(a) <- Q.one;
            is_art.(a) <- true;
            basis.(i) <- a))
      rows;
    (* --- simplex core ---------------------------------------------------- *)
    let banned = Array.make n_total false in
    let cost = Array.make n_total Q.zero in
    let costv = ref Q.zero in
    let pivot r c =
      Obs.Metrics.incr m_pivots;
      let prow = tab.(r) in
      let p = prow.(c) in
      if not (Q.equal p Q.one) then begin
        let inv = Q.inv p in
        for j = 0 to n_total - 1 do
          if not (Q.is_zero prow.(j)) then prow.(j) <- Q.mul prow.(j) inv
        done;
        rhs.(r) <- Q.mul rhs.(r) inv
      end;
      for i = 0 to m - 1 do
        if i <> r then begin
          let f = tab.(i).(c) in
          if not (Q.is_zero f) then begin
            let irow = tab.(i) in
            for j = 0 to n_total - 1 do
              if not (Q.is_zero prow.(j)) then
                irow.(j) <- Q.sub irow.(j) (Q.mul f prow.(j))
            done;
            rhs.(i) <- Q.sub rhs.(i) (Q.mul f rhs.(r))
          end
        end
      done;
      let f = cost.(c) in
      if not (Q.is_zero f) then begin
        for j = 0 to n_total - 1 do
          if not (Q.is_zero prow.(j)) then
            cost.(j) <- Q.sub cost.(j) (Q.mul f prow.(j))
        done;
        costv := Q.sub !costv (Q.mul f rhs.(r))
      end;
      basis.(r) <- c
    in
    (* Installs the reduced-cost row for minimising [c_vec . x]. *)
    let install_cost c_vec c_const =
      Array.blit c_vec 0 cost 0 n_total;
      costv := c_const;
      for i = 0 to m - 1 do
        let b = basis.(i) in
        let f = cost.(b) in
        if not (Q.is_zero f) then begin
          let brow = tab.(i) in
          for j = 0 to n_total - 1 do
            if not (Q.is_zero brow.(j)) then
              cost.(j) <- Q.sub cost.(j) (Q.mul f brow.(j))
          done;
          costv := Q.sub !costv (Q.mul f rhs.(i))
        end
      done
    in
    (* Bland's rule iteration; returns [`Optimal] or [`Unbounded]. *)
    let iterate () =
      let result = ref None in
      while !result = None do
        (* entering: smallest non-banned column with negative reduced cost *)
        let enter = ref (-1) in
        (try
           for j = 0 to n_total - 1 do
             if (not banned.(j)) && Q.sign cost.(j) < 0 then begin
               enter := j;
               raise Exit
             end
           done
         with Exit -> ());
        if !enter < 0 then result := Some `Optimal
        else begin
          let c = !enter in
          (* leaving: ratio test, ties by smallest basis variable (Bland) *)
          let best = ref (-1) in
          let best_ratio = ref Q.zero in
          for i = 0 to m - 1 do
            if Q.sign tab.(i).(c) > 0 then begin
              let ratio = Q.div rhs.(i) tab.(i).(c) in
              if
                !best < 0
                || Q.compare ratio !best_ratio < 0
                || (Q.equal ratio !best_ratio && basis.(i) < basis.(!best))
              then begin
                best := i;
                best_ratio := ratio
              end
            end
          done;
          if !best < 0 then result := Some `Unbounded else pivot !best c
        end
      done;
      match !result with Some r -> r | None -> assert false
    in
    (* --- phase 1 --------------------------------------------------------- *)
    let phase2_and_extract () =
      (* Ban artificial columns from ever re-entering. *)
      for j = 0 to n_total - 1 do
        if is_art.(j) then banned.(j) <- true
      done;
      (* Drive artificials out of the basis where possible. *)
      for i = 0 to m - 1 do
        if is_art.(basis.(i)) then begin
          let piv = ref (-1) in
          (try
             for j = 0 to n_total - 1 do
               if (not is_art.(j)) && not (Q.is_zero tab.(i).(j)) then begin
                 piv := j;
                 raise Exit
               end
             done
           with Exit -> ());
          if !piv >= 0 then pivot i !piv
          (* else: redundant row; the artificial stays basic at value 0 and,
             being banned, never changes. *)
        end
      done;
      let c2 = Array.make n_total Q.zero in
      let factor = match dir with Model.Minimize -> Q.one | Model.Maximize -> Q.minus_one in
      Array.iteri (fun j v -> if j < n_struct then c2.(j) <- Q.mul factor v) obj_coeffs;
      install_cost c2 Q.zero;
      match iterate () with
      | `Unbounded -> Solution.Unbounded
      | `Optimal ->
        (* column values: basic -> rhs, nonbasic -> 0 *)
        let colv = Array.make n_total Q.zero in
        for i = 0 to m - 1 do
          colv.(basis.(i)) <- rhs.(i)
        done;
        let values =
          Array.init nv (fun v ->
              match map.(v) with
              | Shifted (c, shift) -> Q.add shift colv.(c)
              | Mirrored (c, shift) -> Q.sub shift colv.(c)
              | Split (p, n) -> Q.sub colv.(p) colv.(n))
        in
        (* minimised value = -(costv); undo the transform and sign. *)
        let min_val = Q.neg !costv in
        let obj_struct =
          match dir with Model.Minimize -> min_val | Model.Maximize -> Q.neg min_val
        in
        let objective = Q.add obj_struct obj_const in
        Solution.Optimal { objective; values }
    in
    if n_art = 0 then begin
      install_cost (Array.make n_total Q.zero) Q.zero;
      phase2_and_extract ()
    end
    else begin
      let c1 = Array.make n_total Q.zero in
      for j = 0 to n_total - 1 do
        if is_art.(j) then c1.(j) <- Q.one
      done;
      install_cost c1 Q.zero;
      match iterate () with
      | `Unbounded ->
        (* Phase-1 objective is bounded below by 0; cannot happen. *)
        assert false
      | `Optimal ->
        let phase1_value = Q.neg !costv in
        if Q.sign phase1_value > 0 then Solution.Infeasible
        else phase2_and_extract ()
    end
  end

(* The dense path behind the warm-start interface: the state is just
   the box and the last optimal point, so every re-solve is a cold solve
   under the child's box — exactly the pre-warm-start behaviour branch
   & bound falls back to. *)
module Dense_engine : ENGINE = struct
  type state = {
    model : Model.t;
    book : Book_q.t;
    lb : Q.t option array;
    ub : Q.t option array;
    mutable point : Q.t array;
  }

  let root model ~lb ~ub =
    match dense_solve_with_bounds model ~lb ~ub with
    | Solution.Optimal { values; _ } as sol ->
      ( Some
          { model; book = Book_q.make model; lb = Array.copy lb;
            ub = Array.copy ub; point = values },
        sol )
    | sol -> (None, sol)

  let root_certified model ~lb ~ub =
    (* Variable substitution destroys the dual frame, so the dense tier
       never certifies — audits of a dense answer count as skipped. *)
    let st, sol = root model ~lb ~ub in
    (st, sol, None)

  let branch st = { st with lb = Array.copy st.lb; ub = Array.copy st.ub }

  let solve st =
    match dense_solve_with_bounds st.model ~lb:st.lb ~ub:st.ub with
    | Solution.Optimal { values; _ } ->
      st.point <- values;
      true
    | Solution.Infeasible | Solution.Unbounded -> false

  let resolve st ~lb ~ub =
    Array.blit lb 0 st.lb 0 (Array.length lb);
    Array.blit ub 0 st.ub 0 (Array.length ub);
    solve st

  let tighten st v ~lower bound =
    if lower then st.lb.(v) <- Some bound else st.ub.(v) <- Some bound;
    solve st

  let certificate _ = None
  let values st = st.point
  let objective st = Book_q.objective st.book (Array.get st.point)
  let most_fractional st = Book_q.most_fractional st.book (Array.get st.point)

  let floor_incumbent st ~beats =
    Book_q.floor_incumbent st.book (Array.get st.point) ~beats

  let feasible model x = Book_q.feasible (Book_q.make model) (Array.get x)
end

let fast : (module ENGINE) = (module Fast_engine)
let exact : (module ENGINE) = (module Exact_engine)
let dense : (module ENGINE) = (module Dense_engine)

(* ------------------------------------------------------------------ *)
(* Tiered public entry points                                          *)
(* ------------------------------------------------------------------ *)

let solve_with_bounds_certified model ~lb ~ub =
  Obs.Tracer.with_span "ilp.simplex" (fun () ->
      let r, cert =
        match Fast_engine.root_certified model ~lb ~ub with
        | _, sol, cert ->
          Obs.Metrics.incr m_fast_solves;
          (sol, cert)
        | exception (Fastq.Overflow | Stalled) -> (
            Obs.Metrics.incr m_fast_fallbacks;
            match Exact_engine.root_certified model ~lb ~ub with
            | _, sol, cert -> (sol, cert)
            | exception Stalled ->
              Obs.Metrics.incr m_dense_fallbacks;
              (dense_solve_with_bounds model ~lb ~ub, None))
      in
      (match r with
       | Solution.Infeasible -> Obs.Metrics.incr m_infeasible
       | Solution.Unbounded -> Obs.Metrics.incr m_unbounded
       | Solution.Optimal _ -> ());
      (r, cert))

let solve_with_bounds model ~lb ~ub = fst (solve_with_bounds_certified model ~lb ~ub)

let declared_bounds model =
  let nv = Model.num_vars model in
  let lb = Array.init nv (fun v -> (Model.var_info model v).lb) in
  let ub = Array.init nv (fun v -> (Model.var_info model v).ub) in
  (lb, ub)

let solve_certified model =
  let lb, ub = declared_bounds model in
  solve_with_bounds_certified model ~lb ~ub

let solve model = fst (solve_certified model)
