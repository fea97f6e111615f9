(* Interprocedural range analysis over the typed AST.

   Structure: an outer chaotic iteration over (function summaries,
   global-scalar invariants, array-content invariants) — all monotone
   accumulators, switched from join to widen after a few rounds so the
   outer loop terminates — around an inner structural interpreter per
   function body that is flow-sensitive in locals and global scalars,
   widens at loop heads, narrows with two truncated descending sweeps,
   and refines environments through comparison guards.

   The syntax is walked once, the abstract state many times.  Before
   the first round, [annotate] turns each function body into a resolved
   tree holding everything that depends on the program text alone:
   each statement's site path, each [for] loop's {!Bounds}
   classification, and every variable reference resolved to a number —
   a slot of the function's local environment, a global scalar, or an
   array's storage.  The rounds and loop fixpoints walk that tree
   carrying nothing but the abstract environment, and never hash or
   compare a name.

   Soundness of the accumulators: a global scalar's invariant is the
   join of its initial value and every store the whole program can
   perform, so reading the invariant at any point over-approximates the
   cell; inside one function body stores are additionally tracked
   flow-sensitively until the next call (which may re-enter anything
   and is modelled by dropping back to the invariant).  Array contents
   are flow-insensitive only: the join of the zero-fill and every
   stored value. *)

module R = Ilp_analysis.Range
module V = R.V
module IMap = Map.Make (Int)
module STbl = Hashtbl.Make (String)

type verdict = Proved_safe | Proved_oob | Unknown

let verdict_name = function
  | Proved_safe -> "proved-safe"
  | Proved_oob -> "proved-oob"
  | Unknown -> "unknown"

type site = {
  s_func : string;
  s_path : string;
  s_array : string;
  s_extent : int;
  s_write : bool;
  s_range : V.t;
  s_verdict : verdict;
}

type t = {
  sites : site list;
  scalar_ranges : (string * V.t) list;
  index_ranges : (string * V.t) list;
  content_ranges : (string * V.t) list;
}

(* ------------------------------------------------------------------ *)
(* Resolved syntax.  Names are numbered once per analysis: locals and
   parameters per function (by name, so a re-declaration shares its
   slot), global scalars and array storage per program.  A storage is
   what the content and index accumulators are keyed by: the array's
   own name for a global array, the base array's for a view, and
   [func.name] for a local array. *)

type var = { v_ty : Tast.ty; v_place : place }

and place =
  | Local of int  (** slot of the function's local environment *)
  | Glob of int  (** global scalar number *)
  | Mem  (** an array or view: not a scalar *)

type arr = {
  a_name : string;  (** the name the access uses (view or array) *)
  a_ty : Tast.ty;
  a_storage : int;
  a_extent : int;  (** declared element count *)
  a_global : bool;  (** global array or view: tracked in [index_union] *)
}

type expr = {
  node : enode;
  ty : Tast.ty;
  calls : bool;  (** evaluating it performs a call *)
}

and enode =
  | Int_lit of int
  | Real_lit
  | Var of var
  | Index of arr * expr
  | Unary of Ast.unop * expr
  | Binary of Ast.binop * expr * expr
  | Call of string * expr list
  | Cast of expr

type node = { path : string; kind : kind }

and kind =
  | Decl of var * expr option
  | Decl_array of arr  (** uninitialised local array *)
  | Assign of var * expr
  | Store of arr * expr * expr  (** [a[index] = value] *)
  | If of expr * node list * node list
  | While of expr * node list
  | For of loop * node list
  | Return of expr option
  | Eval of expr  (** expression statement or [sink] *)

and loop = {
  idx : var;
  cls : Bounds.classification;
      (** under the Bounds constant environment at the loop, so
          counted-loop classification here agrees with the unroller's *)
  init : expr;
  guard : expr;
      (** [idx cmp limit], the test the lowering re-evaluates every
          iteration; used when the loop is not [Counted] *)
  step : int;
}

type func = {
  f : Tast.tfunc;
  body : node list;
  n_locals : int;
  param_slots : int list;
}

(* name -> number tables, filled by [annotate] *)
type numbering = {
  globs : int STbl.t;  (** global scalars *)
  storages : int STbl.t;
  mutable locals : int STbl.t;  (** the function being annotated *)
}

let number tbl name =
  match STbl.find tbl name with
  | n -> n
  | exception Not_found ->
      let n = STbl.length tbl in
      STbl.replace tbl name n;
      n

let resolve_var nb (vr : Tast.var_ref) =
  let place =
    match vr.Tast.vr_kind with
    | Tast.Vlocal | Tast.Vparam _ -> Local (number nb.locals vr.Tast.vr_name)
    | Tast.Vglobal -> Glob (number nb.globs vr.Tast.vr_name)
    | Tast.Vglobal_array _ | Tast.Vview _ | Tast.Vlocal_array _ -> Mem
  in
  { v_ty = vr.Tast.vr_ty; v_place = place }

let resolve_arr nb fname (vr : Tast.var_ref) =
  let storage, extent, global =
    match vr.Tast.vr_kind with
    | Tast.Vglobal_array n -> (vr.Tast.vr_name, n, true)
    | Tast.Vview (base, n) -> (base, n, true)
    | Tast.Vlocal_array n -> (fname ^ "." ^ vr.Tast.vr_name, n, false)
    | Tast.Vglobal | Tast.Vlocal | Tast.Vparam _ ->
        (* semant guarantees this cannot happen on an indexed reference *)
        (vr.Tast.vr_name, 0, false)
  in
  {
    a_name = vr.Tast.vr_name;
    a_ty = vr.Tast.vr_ty;
    a_storage = number nb.storages storage;
    a_extent = extent;
    a_global = global;
  }

let rec resolve_expr nb fname (e : Tast.texpr) =
  let node, calls =
    match e.Tast.tnode with
    | Tast.Tint_lit n -> (Int_lit n, false)
    | Tast.Treal_lit _ -> (Real_lit, false)
    | Tast.Tvar vr -> (Var (resolve_var nb vr), false)
    | Tast.Tindex (vr, ie) ->
        let a = resolve_arr nb fname vr in
        let ie = resolve_expr nb fname ie in
        (Index (a, ie), ie.calls)
    | Tast.Tunary (op, a) ->
        let a = resolve_expr nb fname a in
        (Unary (op, a), a.calls)
    | Tast.Tbinary (op, a, b) ->
        let a = resolve_expr nb fname a in
        let b = resolve_expr nb fname b in
        (Binary (op, a, b), a.calls || b.calls)
    | Tast.Tcall (name, args) ->
        (Call (name, List.map (resolve_expr nb fname) args), true)
    | Tast.Tcast (_, a) ->
        let a = resolve_expr nb fname a in
        (Cast a, a.calls)
  in
  { node; ty = e.Tast.tty; calls }

(* [benv] is the Bounds constant environment before the statement. *)
let rec annotate_stmts nb fname benv path stmts =
  let _, _, rev =
    List.fold_left
      (fun (i, benv, acc) stmt ->
        let n =
          annotate_stmt nb fname benv (Printf.sprintf "%s.%d" path i) stmt
        in
        (i + 1, Bounds.Env.after_stmt benv stmt, n :: acc))
      (0, benv, []) stmts
  in
  List.rev rev

and annotate_stmt nb fname benv path (stmt : Tast.tstmt) =
  let expr = resolve_expr nb fname in
  let kind =
    match stmt with
    | Tast.TSdecl (({ Tast.vr_kind = Tast.Vlocal_array _; _ } as vr), _) ->
        Decl_array (resolve_arr nb fname vr)
    | Tast.TSdecl (vr, init) -> Decl (resolve_var nb vr, Option.map expr init)
    | Tast.TSassign (vr, e) -> Assign (resolve_var nb vr, expr e)
    | Tast.TSindex_assign (vr, ie, ve) ->
        let a = resolve_arr nb fname vr in
        let ie = expr ie in
        Store (a, ie, expr ve)
    | Tast.TSif (cond, ts, es) ->
        let cond = expr cond in
        let ts = annotate_stmts nb fname benv (path ^ ".then") ts in
        If (cond, ts, annotate_stmts nb fname benv (path ^ ".else") es)
    | Tast.TSwhile (cond, body) ->
        let cond = expr cond in
        While
          ( cond,
            annotate_stmts nb fname
              (Bounds.Env.at_body_entry benv body)
              (path ^ ".body") body )
    | Tast.TSfor (hdr, body) ->
        let idx = resolve_var nb hdr.Tast.tf_var in
        let init = expr hdr.Tast.tf_init in
        let limit = expr hdr.Tast.tf_limit in
        let guard =
          {
            node =
              Binary
                ( hdr.Tast.tf_cmp,
                  { node = Var idx; ty = idx.v_ty; calls = false },
                  limit );
            ty = Tast.Tint;
            calls = limit.calls;
          }
        in
        let loop =
          { idx; cls = Bounds.classify benv hdr body; init; guard;
            step = hdr.Tast.tf_step }
        in
        For
          ( loop,
            annotate_stmts nb fname
              (Bounds.Env.at_loop_entry benv hdr body)
              (path ^ ".body") body )
    | Tast.TSreturn eo -> Return (Option.map expr eo)
    | Tast.TSexpr e | Tast.TSsink e -> Eval (expr e)
  in
  { path; kind }

let annotate nb (f : Tast.tfunc) =
  nb.locals <- STbl.create 16;
  let fname = f.Tast.tf_name in
  let param_slots =
    List.map
      (fun (vr : Tast.var_ref) -> number nb.locals vr.Tast.vr_name)
      f.Tast.tf_params
  in
  let body = annotate_stmts nb fname Bounds.Env.empty fname f.Tast.tf_body in
  { f; body; n_locals = STbl.length nb.locals; param_slots }

(* ------------------------------------------------------------------ *)

type fsummary = {
  mutable params : V.t array;
  mutable ret : V.t;
  mutable called : bool;
}

(* One generation of the interprocedural accumulators; the arrays are
   indexed by global-scalar and storage number. *)
type tables = {
  summaries : fsummary STbl.t;
  glob_inv : V.t array;  (** int global scalar invariants *)
  content : V.t array;  (** storage -> element values *)
  index_union : V.t array;  (** global storage -> subscripts *)
}

(* [rd] and [wr] alias the same tables during the ascending phase
   (chaotic iteration reads its own in-progress facts).  The
   descending (narrowing) rounds split them: reads come from a frozen
   post-fixpoint A, writes rebuild fresh tables, yielding F(A) -- which
   over-approximates the least fixpoint because F is monotone and A is
   above it.  Two such rounds recover most of what the accumulator
   widening gave away. *)
type state = {
  mutable rd : tables;
  mutable wr : tables;
  mutable widening : bool;  (** accumulator joins switched to widen *)
  mutable changed : bool;
  mutable recording : bool;
  site_order : (string * string * string * bool, int) Hashtbl.t;
  mutable site_seq : int;
  site_tbl : (int, site) Hashtbl.t;
      (** keyed by discovery order; loop fixpoints walk a body several
          times during the recording pass, and the last walk (the final
          narrowing sweep) both is sound and has the sharpest ranges,
          so later records replace earlier ones *)
}

(* Environments: flow-sensitive scalar facts.  [locals] holds every
   local and parameter slot of the function (top until written; the
   array is never mutated once built); [globs] maps global scalars
   written since the last call (absent = the accumulated invariant). *)
type env = Dead | Live of { locals : V.t array; globs : V.t IMap.t }

(* Join [v] into an accumulator; flips [st.changed] on growth. *)
let acc_join st tbl i v =
  let cur = tbl.(i) in
  let next =
    if st.widening then V.widen cur (V.join cur v) else V.join cur v
  in
  if not (V.equal next cur) then begin
    tbl.(i) <- next;
    st.changed <- true
  end

let lookup_glob st globs g =
  match IMap.find g globs with
  | v -> v
  | exception Not_found -> st.rd.glob_inv.(g)

(* Pointwise equality.  A global bound on one side only is compared
   against the other side's default (the invariant), so checking every
   binding of each map against the other covers the union of their
   keys without building it. *)
let env_equal st a b =
  a == b
  ||
  match (a, b) with
  | Dead, Dead -> true
  | Live a, Live b ->
      (a.locals == b.locals || Array.for_all2 V.equal a.locals b.locals)
      && (a.globs == b.globs
         || IMap.for_all
              (fun g v -> V.equal v (lookup_glob st b.globs g))
              a.globs
            && IMap.for_all
                 (fun g v -> V.equal (lookup_glob st a.globs g) v)
                 b.globs)
  | (Dead | Live _), _ -> false

(* [f] is a join or a widening, and both send top on either side to top,
   so an unwritten (top) local skips the call. *)
let env_merge st f a b =
  match (a, b) with
  | Dead, e | e, Dead -> e
  | Live a, Live b ->
      let locals =
        Array.map2
          (fun x y -> if x == V.top || y == V.top then V.top else f x y)
          a.locals b.locals
      in
      let globs =
        IMap.merge
          (fun g x y ->
            let vx = match x with Some v -> v | None -> st.rd.glob_inv.(g)
            and vy = match y with Some v -> v | None -> st.rd.glob_inv.(g) in
            Some (f vx vy))
          a.globs b.globs
      in
      Live { locals; globs }

let env_join st = env_merge st V.join
let env_widen st = env_merge st V.widen

let write_scalar st env (x : var) v =
  match env with
  | Dead -> Dead
  | Live e -> (
      match x.v_place with
      | Local i ->
          if e.locals.(i) == v then env
          else
            let locals = Array.copy e.locals in
            locals.(i) <- v;
            Live { e with locals }
      | Glob g ->
          if x.v_ty = Tast.Tint then acc_join st st.wr.glob_inv g v;
          Live { e with globs = IMap.add g v e.globs }
      | Mem -> env)

let read_scalar st env (x : var) =
  match env with
  | Dead -> V.bot
  | Live e ->
      if x.v_ty <> Tast.Tint then V.top
      else (
        match x.v_place with
        | Local i -> e.locals.(i)
        | Glob g -> lookup_glob st e.globs g
        | Mem -> V.top)

(* Calls may write any global: forget flow facts, fall back to the
   invariants. *)
let clobber_globals = function
  | Dead -> Dead
  | Live e -> Live { e with globs = IMap.empty }

let in_extent extent =
  V.make (R.Interval.of_bounds (Fin 0) (Fin (extent - 1))) R.Congruence.top

let classify_site extent range =
  if V.is_bot range then Proved_safe
  else if
    V.equal (V.meet range (in_extent extent)) range
    (* every member within [0, extent) *)
    && (match range.V.iv with
       | R.Interval.Iv (Fin _, Fin _) -> true
       | _ -> false)
  then Proved_safe
  else if V.is_bot (V.meet range (in_extent extent)) then Proved_oob
  else Unknown

type fctx = { st : state; fname : string }

let record_site c path ~write (a : arr) range =
  if a.a_global then acc_join c.st c.st.wr.index_union a.a_storage range;
  if c.st.recording then begin
    let key = (c.fname, path, a.a_name, write) in
    let order =
      match Hashtbl.find_opt c.st.site_order key with
      | Some n -> n
      | None ->
          let n = c.st.site_seq in
          c.st.site_seq <- n + 1;
          Hashtbl.replace c.st.site_order key n;
          n
    in
    Hashtbl.replace c.st.site_tbl order
      {
        s_func = c.fname;
        s_path = path;
        s_array = a.a_name;
        s_extent = a.a_extent;
        s_write = write;
        s_range = range;
        s_verdict = classify_site a.a_extent range;
      }
  end

let summary_wr c name =
  match STbl.find_opt c.st.wr.summaries name with
  | Some s -> s
  | None ->
      let s = { params = [||]; ret = V.bot; called = false } in
      STbl.replace c.st.wr.summaries name s;
      s

(* The frozen summary a call's result is read from; [None] only for
   functions the post-fixpoint proves unreachable. *)
let summary_rd c name = STbl.find_opt c.st.rd.summaries name

(* ------------------------------------------------------------------ *)
(* Expression evaluation (effectful: call-site summary joins, global
   clobbers, subscript recording).  Every subexpression is evaluated
   unconditionally, so the only change an expression makes to the
   environment is the global clobber of a call, and [after] applies it
   exactly when the expression contains one. *)

let is_cmp = function
  | Ast.Beq | Ast.Bne | Ast.Blt | Ast.Ble | Ast.Bgt | Ast.Bge -> true
  | _ -> false

(* The environment once [e] has been evaluated in [env]. *)
let after (e : expr) env = if e.calls then clobber_globals env else env

let rec eval c path env (e : expr) : V.t =
  match env with
  | Dead -> V.bot
  | Live _ -> (
      match e.node with
      | Int_lit n -> V.of_const n
      | Real_lit -> V.top
      | Var x -> read_scalar c.st env x
      | Index (a, ie) ->
          let iv = eval c path env ie in
          record_site c path ~write:false a iv;
          if e.ty = Tast.Tint then c.st.rd.content.(a.a_storage) else V.top
      | Unary (Ast.Uneg, a) ->
          let v = eval c path env a in
          if e.ty = Tast.Tint then V.neg v else V.top
      | Unary (Ast.Unot, a) ->
          ignore (eval c path env a);
          V.bool_result
      | Binary ((Ast.Band | Ast.Bor), a, b) ->
          (* short-circuit: [b] may or may not run; its effects are
             monotone accumulator joins, so evaluating it
             unconditionally over-approximates *)
          ignore (eval c path env a);
          ignore (eval c path (after a env) b);
          V.bool_result
      | Binary (op, a, b) ->
          let va = eval c path env a in
          let vb = eval c path (after a env) b in
          if e.ty <> Tast.Tint then V.top
          else if is_cmp op then V.bool_result
          else (
            match op with
            | Ast.Badd -> V.add va vb
            | Ast.Bsub -> V.sub va vb
            | Ast.Bmul -> V.mul va vb
            | Ast.Bdiv -> V.div va vb
            | Ast.Bmod -> V.rem va vb
            | Ast.Bbit_and -> V.band va vb
            | Ast.Bbit_or -> V.bor va vb
            | Ast.Bbit_xor -> V.bxor va vb
            | Ast.Bshl -> V.shl va vb
            | Ast.Bshr -> V.shr va vb
            | _ -> V.top)
      | Call (name, args) ->
          let _, vs =
            List.fold_left
              (fun (env, acc) a ->
                let v = eval c path env a in
                (after a env, v :: acc))
              (env, []) args
          in
          let vs = Array.of_list (List.rev vs) in
          let s = summary_wr c name in
          if not s.called then begin
            s.called <- true;
            c.st.changed <- true
          end;
          if Array.length s.params <> Array.length vs then
            s.params <- Array.map (fun _ -> V.bot) vs;
          Array.iteri
            (fun i v ->
              let cur = s.params.(i) in
              let next =
                if c.st.widening then V.widen cur (V.join cur v)
                else V.join cur v
              in
              if not (V.equal next cur) then begin
                s.params.(i) <- next;
                c.st.changed <- true
              end)
            vs;
          let ret =
            match summary_rd c name with Some s -> s.ret | None -> V.bot
          in
          if e.ty = Tast.Tint then ret else V.top
      | Cast a ->
          let v = eval c path env a in
          if e.ty = Tast.Tint && a.ty = Tast.Tint then v else V.top)

(* Guard refinement: push the truth (or falsity) of a condition into
   the scalar operands of its comparisons. *)
let rec assume c path env (e : expr) truth =
  match env with
  | Dead -> Dead
  | Live _ -> (
      match e.node with
      | Unary (Ast.Unot, a) -> assume c path env a (not truth)
      | Binary (Ast.Band, a, b) when truth ->
          assume c path (assume c path env a true) b true
      | Binary (Ast.Bor, a, b) when not truth ->
          assume c path (assume c path env a false) b false
      | Binary (op, a, b) when is_cmp op ->
          let va = eval c path env a in
          let vb = eval c path env b in
          let refine =
            match (op, truth) with
            | Ast.Beq, true | Ast.Bne, false -> Some (V.assume_eq va vb)
            | Ast.Bne, true | Ast.Beq, false -> Some (V.assume_ne va vb)
            | Ast.Blt, true | Ast.Bge, false -> Some (V.assume_lt va vb)
            | Ast.Ble, true | Ast.Bgt, false -> Some (V.assume_le va vb)
            | Ast.Bgt, true | Ast.Ble, false ->
                let vb', va' = V.assume_lt vb va in
                Some (va', vb')
            | Ast.Bge, true | Ast.Blt, false ->
                let vb', va' = V.assume_le vb va in
                Some (va', vb')
            | _ -> None
          in
          (match refine with
          | None -> env
          | Some (va', vb') ->
              if V.is_bot va' || V.is_bot vb' then Dead
              else
                let set env ex v =
                  match ex.node with
                  | Var x when ex.ty = Tast.Tint -> write_scalar c.st env x v
                  | _ -> env
                in
                set (set env a va') b vb')
      | Var x when e.ty = Tast.Tint ->
          let v = read_scalar c.st env x in
          if truth then
            (* v != 0: only endpoint shaving available *)
            let v', _ = V.assume_ne v (V.of_const 0) in
            if V.is_bot v' then Dead else write_scalar c.st env x v'
          else
            let v' = V.meet v (V.of_const 0) in
            if V.is_bot v' then Dead else write_scalar c.st env x v'
      | _ -> env)

(* A loop test taken one way: evaluate it (its subscripts and calls
   count), then refine by the outcome. *)
let take c path cond truth env =
  ignore (eval c path env cond);
  assume c path (after cond env) cond truth

(* ------------------------------------------------------------------ *)
(* Statements. *)

let loop_fixpoint c st_join ~entry ~enter_body ~body_step ~exit_of =
  let inv = ref entry in
  let stable = ref false in
  let iter = ref 0 in
  while (not !stable) && !iter < 60 do
    incr iter;
    let out = body_step (enter_body !inv) in
    let nxt = st_join entry out in
    if env_equal c.st nxt !inv then stable := true
    else inv := if !iter >= 3 then env_widen c.st !inv nxt else nxt
  done;
  for _ = 1 to 2 do
    let out = body_step (enter_body !inv) in
    inv := st_join entry out
  done;
  exit_of !inv

let rec exec_stmts c env nodes = List.fold_left (exec_stmt c) env nodes

and exec_stmt c env { path; kind } : env =
  match (kind, env) with
  | _, Dead -> Dead
  | Decl_array a, Live _ ->
      (* uninitialised stack storage: contents unknown *)
      acc_join c.st c.st.wr.content a.a_storage V.top;
      env
  | Decl (x, None), Live _ -> write_scalar c.st env x V.top
  | Decl (x, Some e), Live _ | Assign (x, e), Live _ ->
      let v = eval c path env e in
      write_scalar c.st (after e env) x
        (if x.v_ty = Tast.Tint then v else V.top)
  | Store (a, ie, ve), Live _ ->
      let iv = eval c path env ie in
      let env = after ie env in
      let v = eval c path env ve in
      let env = after ve env in
      record_site c path ~write:true a iv;
      acc_join c.st c.st.wr.content a.a_storage
        (if a.a_ty = Tast.Tint then v else V.top);
      env
  | If (cond, ts, es), Live _ ->
      ignore (eval c path env cond);
      let env = after cond env in
      let t_env = assume c path env cond true in
      let e_env = assume c path env cond false in
      let t_out = exec_stmts c t_env ts in
      let e_out = exec_stmts c e_env es in
      env_join c.st t_out e_out
  | While (cond, body), Live _ ->
      loop_fixpoint c (env_join c.st) ~entry:env
        ~enter_body:(take c path cond true)
        ~body_step:(fun env -> exec_stmts c env body)
        ~exit_of:(take c path cond false)
  | For (loop, body), Live _ -> exec_for c env path loop body
  | Return eo, Live _ ->
      (match eo with
      | None -> ()
      | Some e ->
          let v = eval c path env e in
          let s = summary_wr c c.fname in
          let next =
            if c.st.widening then V.widen s.ret (V.join s.ret v)
            else V.join s.ret v
          in
          if not (V.equal next s.ret) then begin
            s.ret <- next;
            c.st.changed <- true
          end);
      Dead
  | Eval e, Live _ ->
      ignore (eval c path env e);
      after e env

and exec_for c env path loop body =
  let idx = loop.idx in
  match loop.cls with
  | Bounds.Counted { start; step = _; trips } when trips <= 0 ->
      write_scalar c.st env idx (V.of_const start)
  | Bounds.Counted { start; step; trips } ->
      let pin inv =
        write_scalar c.st inv idx (V.of_counted ~start ~step ~trips)
      in
      loop_fixpoint c (env_join c.st) ~entry:(pin env) ~enter_body:pin
        ~body_step:(fun env -> exec_stmts c env body)
        ~exit_of:(fun inv ->
          write_scalar c.st inv idx (V.of_const (start + (trips * step))))
  | _ ->
      (* degenerate or symbolic bounds: the while form the lowering
         uses (limit re-evaluated every iteration) *)
      let v0 = eval c path env loop.init in
      let env = write_scalar c.st (after loop.init env) idx v0 in
      let step = V.of_const loop.step in
      loop_fixpoint c (env_join c.st) ~entry:env
        ~enter_body:(take c path loop.guard true)
        ~body_step:(fun env ->
          match exec_stmts c env body with
          | Dead -> Dead
          | Live _ as env ->
              let v = read_scalar c.st env idx in
              write_scalar c.st env idx (V.add v step))
        ~exit_of:(take c path loop.guard false)

(* ------------------------------------------------------------------ *)

let analyze_func st (fn : func) =
  let f = fn.f in
  let c = { st; fname = f.Tast.tf_name } in
  let n_params = List.length f.Tast.tf_params in
  let param i =
    match summary_rd c f.Tast.tf_name with
    | Some s when Array.length s.params = n_params -> s.params.(i)
    | _ -> V.bot
  in
  let locals = Array.make fn.n_locals V.top in
  List.iteri
    (fun i ((vr : Tast.var_ref), slot) ->
      locals.(slot) <- (if vr.Tast.vr_ty = Tast.Tint then param i else V.top))
    (List.combine f.Tast.tf_params fn.param_slots);
  ignore (exec_stmts c (Live { locals; globs = IMap.empty }) fn.body)

let fresh_tables nb (p : Tast.tprogram) =
  let tb =
    {
      summaries = STbl.create 17;
      glob_inv = Array.make (STbl.length nb.globs) V.bot;
      content = Array.make (STbl.length nb.storages) V.bot;
      index_union = Array.make (STbl.length nb.storages) V.bot;
    }
  in
  (* initial values of globals (memory starts zero-filled) *)
  List.iter
    (fun (g : Tast.tglobal) ->
      if g.Tast.tg_ty = Tast.Tint then
        let init =
          match g.Tast.tg_init with
          | Some (Ast.Cint n) -> V.of_const n
          | Some (Ast.Creal _) -> V.top
          | None -> V.of_const 0
        in
        if g.Tast.tg_words = 1 then
          tb.glob_inv.(STbl.find nb.globs g.Tast.tg_name) <- init
        else tb.content.(STbl.find nb.storages g.Tast.tg_name) <- init)
    p.Tast.tglobals;
  List.iter
    (fun (f : Tast.tfunc) ->
      if f.Tast.tf_name = "main" then
        STbl.replace tb.summaries f.Tast.tf_name
          { params = [||]; ret = V.bot; called = true })
    p.Tast.tfuncs;
  tb

let copy_tables tb =
  {
    summaries =
      (let t = STbl.create 17 in
       STbl.iter
         (fun k (s : fsummary) ->
           STbl.replace t k
             { params = Array.copy s.params; ret = s.ret; called = s.called })
         tb.summaries;
       t);
    glob_inv = Array.copy tb.glob_inv;
    content = Array.copy tb.content;
    index_union = Array.copy tb.index_union;
  }

let analyze (p : Tast.tprogram) : t =
  let nb =
    {
      globs = STbl.create 17;
      storages = STbl.create 17;
      locals = STbl.create 1;
    }
  in
  (* every global gets its number up front: the accumulators are sized
     and initialised from the declarations *)
  List.iter
    (fun (g : Tast.tglobal) ->
      ignore
        (number (if g.Tast.tg_words = 1 then nb.globs else nb.storages)
           g.Tast.tg_name))
    p.Tast.tglobals;
  let funcs = List.map (annotate nb) p.Tast.tfuncs in
  let st =
    {
      rd = fresh_tables nb p;
      wr = fresh_tables nb p;
      widening = false;
      changed = false;
      recording = false;
      site_order = Hashtbl.create 64;
      site_seq = 0;
      site_tbl = Hashtbl.create 64;
    }
  in
  st.wr <- st.rd;
  let round () =
    st.changed <- false;
    List.iter
      (fun fn ->
        match STbl.find_opt st.rd.summaries fn.f.Tast.tf_name with
        | Some s when s.called -> analyze_func st fn
        | _ -> ())
      funcs
  in
  (* ascending phase: rd and wr alias, widening after a grace period *)
  let r = ref 0 in
  let continue_ = ref true in
  while !continue_ && !r < 40 do
    incr r;
    st.widening <- !r > 6;
    round ();
    if not st.changed then continue_ := false
  done;
  (* descending (narrowing) rounds: evaluate F over the frozen
     post-fixpoint into fresh accumulators *)
  st.widening <- false;
  for _ = 1 to 2 do
    st.rd <- copy_tables st.wr;
    st.wr <- fresh_tables nb p;
    round ()
  done;
  (* recording round: reads from the narrowed generation *)
  st.rd <- copy_tables st.wr;
  st.wr <- fresh_tables nb p;
  st.recording <- true;
  round ();
  let globals_scalar =
    List.filter_map
      (fun (g : Tast.tglobal) ->
        if g.Tast.tg_ty = Tast.Tint && g.Tast.tg_words = 1 then
          let g_num = STbl.find nb.globs g.Tast.tg_name in
          Some (g.Tast.tg_name, st.rd.glob_inv.(g_num))
        else None)
      p.Tast.tglobals
  in
  let global_arrays =
    List.filter_map
      (fun (g : Tast.tglobal) ->
        if g.Tast.tg_words > 1 then Some g.Tast.tg_name else None)
      p.Tast.tglobals
  in
  let storage_range tbl a = tbl.(STbl.find nb.storages a) in
  let sites =
    List.init st.site_seq (fun i -> Hashtbl.find st.site_tbl i)
  in
  {
    sites;
    scalar_ranges = globals_scalar;
    index_ranges =
      List.map (fun a -> (a, storage_range st.rd.index_union a)) global_arrays;
    content_ranges =
      List.filter_map
        (fun a ->
          if List.exists (fun (g : Tast.tglobal) -> g.Tast.tg_name = a && g.Tast.tg_ty = Tast.Tint) p.Tast.tglobals
          then Some (a, storage_range st.rd.content a)
          else None)
        global_arrays;
  }

let counts (t : t) =
  List.fold_left
    (fun (s, o, u) site ->
      match site.s_verdict with
      | Proved_safe -> (s + 1, o, u)
      | Proved_oob -> (s, o + 1, u)
      | Unknown -> (s, o, u + 1))
    (0, 0, 0) t.sites

let scalar_range t name =
  match List.assoc_opt name t.scalar_ranges with Some v -> v | None -> V.top

let index_range t name =
  match List.assoc_opt name t.index_ranges with Some v -> v | None -> V.bot
