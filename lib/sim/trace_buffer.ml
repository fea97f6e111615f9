(* Capture-once/replay-many dynamic traces.

   A sweep like Figure 4-1 measures the same workload on many machine
   configurations.  The dynamic instruction stream is almost entirely
   shared between those measurements: compilation depends on the
   configuration only through the register split (regalloc) and the
   final per-block scheduling pass, and the scheduler permutes
   instructions *within* basic blocks only, never across calls or past
   the terminator (see Ddg).  So the branch decisions, the per-static-
   instruction effective-address sequences, and each instruction's
   dynamic execution count are invariant across every schedule of one
   pre-scheduled program.

   [capture] runs the functional interpreter once over a pre-scheduled
   program and records, per static instruction (keyed by [Instr.id]):

   - for loads and stores, the sequence of effective addresses, packed
     into growable int arrays;
   - for conditional branches, the sequence of taken bits, packed 62
     per word;

   plus the run summary (dynamic count, checksum, class mix).  Unlike
   [Trace.capture]'s list of records, this representation holds 10^7+
   entries in a few megabytes.

   [replay] then drives a [Timing.t] from the buffer over *any* sibling
   schedule of the captured program — the binary is walked as flattened
   threaded code, each instruction pre-decoded for [Timing.issue_decoded],
   with control transfers resolved from the recorded taken bits instead
   of re-interpreting the program.  Any mismatch between the buffer and
   the binary raises [Divergence] rather than producing wrong timings. *)

open Ilp_ir

exception Divergence of string

let divergence fmt = Printf.ksprintf (fun s -> raise (Divergence s)) fmt

(* growable packed int vector *)
module Ivec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 8 0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let d = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 d 0 v.len;
      v.data <- d
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1
end

(* growable bit vector: 62 taken-bits per word *)
module Bitvec = struct
  type t = { mutable data : int array; mutable len : int }

  let bits_per_word = 62

  let create () = { data = Array.make 4 0; len = 0 }

  let push v b =
    let w = v.len / bits_per_word and k = v.len mod bits_per_word in
    if w = Array.length v.data then begin
      let d = Array.make (2 * w) 0 in
      Array.blit v.data 0 d 0 w;
      v.data <- d
    end;
    if b then v.data.(w) <- v.data.(w) lor (1 lsl k);
    v.len <- v.len + 1

  let get v i =
    (v.data.(i / bits_per_word) lsr (i mod bits_per_word)) land 1 = 1
end

type t = {
  dyn_instrs : int;
  sink : Value.t;
  class_counts : int array;
  addrs : (int, Ivec.t) Hashtbl.t;
      (** [Instr.id] -> effective addresses, in execution order *)
  branches : (int, Bitvec.t) Hashtbl.t;
      (** [Instr.id] -> taken bits, in execution order *)
}

let dyn_instrs t = t.dyn_instrs
let sink t = t.sink
let class_counts t = t.class_counts

(* Approximate buffer size: one word per stored address, 1/62 word per
   branch outcome, plus per-stream bookkeeping. *)
let footprint_words t =
  let stream _ (v : Ivec.t) acc = acc + Array.length v.data + 2 in
  let bits _ (v : Bitvec.t) acc = acc + Array.length v.data + 2 in
  Hashtbl.fold stream t.addrs 0 + Hashtbl.fold bits t.branches 0

(* used words of a bit vector: 62 bits per word, rounded up *)
let bitvec_words len = (len + Bitvec.bits_per_word - 1) / Bitvec.bits_per_word

type stats = {
  mem_streams : int;
  branch_streams : int;
  addr_entries : int;
  taken_bits : int;
  dyn : int;
  packed_bytes : int;
}

(* Exact cost of the capture: stream counts, recorded entries, and the
   bytes the packed payload occupies (8 bytes per address, 8 bytes per
   62 taken bits — capacity slack in the growable vectors excluded). *)
let stats t =
  let addr_entries =
    Hashtbl.fold (fun _ (v : Ivec.t) acc -> acc + v.Ivec.len) t.addrs 0
  in
  let taken_bits =
    Hashtbl.fold (fun _ (v : Bitvec.t) acc -> acc + v.Bitvec.len) t.branches 0
  in
  let bit_words =
    Hashtbl.fold
      (fun _ (v : Bitvec.t) acc -> acc + bitvec_words v.Bitvec.len)
      t.branches 0
  in
  { mem_streams = Hashtbl.length t.addrs;
    branch_streams = Hashtbl.length t.branches;
    addr_entries;
    taken_bits;
    dyn = t.dyn_instrs;
    packed_bytes = 8 * (addr_entries + bit_words);
  }

let byte_size t = (stats t).packed_bytes

(* Logical equality: same run summary and, per traced instruction, the
   same recorded streams.  Capacity slack in the growable vectors is
   ignored, so a capture and its packed/unpacked image compare equal. *)
let equal a b =
  let ivec_eq (x : Ivec.t) (y : Ivec.t) =
    x.Ivec.len = y.Ivec.len
    &&
    let rec go i = i >= x.Ivec.len || (x.Ivec.data.(i) = y.Ivec.data.(i) && go (i + 1)) in
    go 0
  in
  let bitvec_eq (x : Bitvec.t) (y : Bitvec.t) =
    x.Bitvec.len = y.Bitvec.len
    &&
    let rec go i =
      i >= x.Bitvec.len || (Bitvec.get x i = Bitvec.get y i && go (i + 1))
    in
    go 0
  in
  let table_eq eq ta tb =
    Hashtbl.length ta = Hashtbl.length tb
    && Hashtbl.fold
         (fun id va acc ->
           acc
           && match Hashtbl.find_opt tb id with
              | Some vb -> eq va vb
              | None -> false)
         ta true
  in
  a.dyn_instrs = b.dyn_instrs
  && Value.equal a.sink b.sink
  && a.class_counts = b.class_counts
  && table_eq ivec_eq a.addrs b.addrs
  && table_eq bitvec_eq a.branches b.branches

(* ---- packing: a position-keyed external representation ------------- *)

(* The in-memory buffer keys its streams by [Instr.id] — a process-local
   atomic counter, worthless outside this run.  The packed form re-keys
   every stream by the instruction's flat static position (functions in
   program order, blocks in layout order, instructions in block order),
   which is a pure function of the compiled program.  Compilation is
   deterministic, so a packed trace written by one process re-attaches
   exactly in another, provided both hold the same program — the trace
   store guards that with a canonical program fingerprint. *)

(* flat enumeration shared by [pack] and [unpack]; must visit
   instructions in the same order as [prepare]'s numbering *)
let iter_flat (p : Program.t) f =
  let pos = ref 0 in
  List.iter
    (fun (fn : Func.t) ->
      List.iter
        (fun (b : Block.t) ->
          List.iter
            (fun (i : Instr.t) ->
              f !pos i;
              incr pos)
            b.Block.instrs)
        fn.Func.blocks)
    p.Program.functions

type packed = {
  p_dyn_instrs : int;
  p_sink : Value.t;
  p_class_counts : int array;
  p_addrs : (int * int array) array;
  p_branches : (int * int * int array) array;
}

let pack t (p : Program.t) =
  let pos_of_id = Hashtbl.create 1024 in
  let n = ref 0 in
  iter_flat p (fun pos (i : Instr.t) ->
      Hashtbl.replace pos_of_id i.Instr.id pos;
      n := pos + 1);
  let position id =
    match Hashtbl.find_opt pos_of_id id with
    | Some pos -> pos
    | None ->
        divergence
          "pack: traced instruction %d is not in the packed program" id
  in
  let addrs =
    Hashtbl.fold
      (fun id (v : Ivec.t) acc ->
        (position id, Array.sub v.Ivec.data 0 v.Ivec.len) :: acc)
      t.addrs []
  in
  let branches =
    Hashtbl.fold
      (fun id (v : Bitvec.t) acc ->
        ( position id,
          v.Bitvec.len,
          Array.sub v.Bitvec.data 0 (bitvec_words v.Bitvec.len) )
        :: acc)
      t.branches []
  in
  let by_pos x y = compare (fst x) (fst y) in
  let by_pos3 (x, _, _) (y, _, _) = compare x y in
  { p_dyn_instrs = t.dyn_instrs;
    p_sink = t.sink;
    p_class_counts = Array.copy t.class_counts;
    p_addrs = Array.of_list (List.sort by_pos addrs);
    p_branches = Array.of_list (List.sort by_pos3 branches);
  }

let unpack pk (p : Program.t) =
  let n = ref 0 in
  let ids = ref [||] in
  (* first pass sizes the table, second fills it *)
  iter_flat p (fun pos _ -> n := pos + 1);
  ids := Array.make (max 1 !n) (-1);
  iter_flat p (fun pos (i : Instr.t) -> !ids.(pos) <- i.Instr.id);
  let id_at what pos =
    if pos < 0 || pos >= !n then
      divergence
        "unpack: %s stream at static position %d, but the program has \
         only %d instructions"
        what pos !n
    else !ids.(pos)
  in
  let addrs = Hashtbl.create (Array.length pk.p_addrs) in
  Array.iter
    (fun (pos, data) ->
      let id = id_at "address" pos in
      if Hashtbl.mem addrs id then
        divergence "unpack: duplicate address stream at position %d" pos;
      Hashtbl.add addrs id
        { Ivec.data = Array.copy data; len = Array.length data })
    pk.p_addrs;
  let branches = Hashtbl.create (Array.length pk.p_branches) in
  Array.iter
    (fun (pos, len, words) ->
      let id = id_at "branch" pos in
      if Hashtbl.mem branches id then
        divergence "unpack: duplicate branch stream at position %d" pos;
      if Array.length words <> bitvec_words len then
        divergence
          "unpack: branch stream at position %d has %d words for %d bits"
          pos (Array.length words) len;
      Hashtbl.add branches id
        { Bitvec.data = Array.copy words; len })
    pk.p_branches;
  { dyn_instrs = pk.p_dyn_instrs;
    sink = pk.p_sink;
    class_counts = Array.copy pk.p_class_counts;
    addrs;
    branches;
  }

let capture ?options ?(observers = []) (p : Program.t) =
  let addrs = Hashtbl.create 1024 in
  let branches = Hashtbl.create 256 in
  let record (i : Instr.t) addr =
    if addr >= 0 then
      let v =
        match Hashtbl.find_opt addrs i.Instr.id with
        | Some v -> v
        | None ->
            let v = Ivec.create () in
            Hashtbl.add addrs i.Instr.id v;
            v
      in
      Ivec.push v addr
  in
  let on_branch (i : Instr.t) taken =
    let v =
      match Hashtbl.find_opt branches i.Instr.id with
      | Some v -> v
      | None ->
          let v = Bitvec.create () in
          Hashtbl.add branches i.Instr.id v;
          v
    in
    Bitvec.push v taken
  in
  let outcome =
    Exec.run ?options ~observers:(record :: observers) ~on_branch p
  in
  { dyn_instrs = outcome.Exec.dyn_instrs;
    sink = outcome.Exec.sink;
    class_counts = Array.copy outcome.Exec.class_counts;
    addrs;
    branches;
  }

(* instruction kinds in the flattened binary *)
let k_fall = 0

let k_branch = 1

let k_jump = 2

let k_call = 3

let k_ret = 4

let k_halt = 5

(* A trace bound to one concrete binary: every static instruction
   pre-decoded for [Timing.issue_decoded], the control structure
   flattened to threaded code, and the recorded address/taken-bit
   streams attached to their instructions.  Building this is the per-
   (trace, binary) cost; walking it is the per-dynamic-instruction
   cost, and the walk can be cut into segments at any instruction
   boundary (see [cursor]). *)
type prepared = {
  pr_trace : t;
  pr_n : int;  (* static instructions in the flattened binary *)
  pr_entry : int;
  pr_cls : Iclass.t array;
  pr_is_load : bool array;
  pr_defs : int array array;
  pr_uses : int array array;
  pr_kind : int array;
  pr_next : int array;
  pr_target : int array;
  pr_addr_stream : Ivec.t option array;
  pr_bit_stream : Bitvec.t option array;
}

let prepare t (p : Program.t) =
  let functions = Array.of_list p.Program.functions in
  let code =
    Array.map
      (fun (f : Func.t) ->
        Array.of_list
          (List.map (fun b -> Array.of_list b.Block.instrs) f.Func.blocks))
      functions
  in
  (* flat numbering of every instruction *)
  let base = Array.map (fun blocks -> Array.make (Array.length blocks) 0) code in
  let n = ref 0 in
  Array.iteri
    (fun fn blocks ->
      Array.iteri
        (fun blk instrs ->
          base.(fn).(blk) <- !n;
          n := !n + Array.length instrs)
        blocks)
    code;
  let n = !n in
  (* normalized start of block [blk]: Exec falls through empty blocks;
     -1 when that runs off the end of the function *)
  let rec norm fn blk =
    if blk >= Array.length code.(fn) then -1
    else if Array.length code.(fn).(blk) > 0 then base.(fn).(blk)
    else norm fn (blk + 1)
  in
  (* label resolution, mirroring Exec.resolve: blocks first, then every
     function name aliased to its entry block *)
  let label_pos : (string, int * int) Hashtbl.t = Hashtbl.create 256 in
  Array.iteri
    (fun fn (f : Func.t) ->
      List.iteri
        (fun blk (b : Block.t) ->
          Hashtbl.replace label_pos (Label.to_string b.Block.label) (fn, blk))
        f.Func.blocks)
    functions;
  Array.iteri
    (fun fn (f : Func.t) ->
      if f.Func.blocks <> [] then begin
        (match Hashtbl.find_opt label_pos f.Func.name with
        | Some (fn', blk') when fn' <> fn || blk' <> 0 ->
            divergence "function name %s collides with a basic-block label"
              f.Func.name
        | Some _ | None -> ());
        Hashtbl.replace label_pos f.Func.name (fn, 0)
      end)
    functions;
  let entry =
    match Hashtbl.find_opt label_pos "main" with
    | Some (fn, blk) -> norm fn blk
    | None -> divergence "program has no main function"
  in
  (* pre-decode every static instruction *)
  let cls = Array.make n Iclass.Move in
  let is_load = Array.make n false in
  let defs = Array.make n [||] in
  let uses = Array.make n [||] in
  let kind = Array.make n k_fall in
  let next = Array.make n (-1) in
  let target = Array.make n (-1) in
  let addr_stream = Array.make n None in
  let bit_stream = Array.make n None in
  let matched_addrs = ref 0 and matched_bits = ref 0 in
  let reg_indices regs = Array.of_list (List.map Reg.index regs) in
  (* a target that does not resolve stays -1; that is only an error if
     control actually reaches it (Exec faults lazily the same way) *)
  let resolve_target (i : Instr.t) =
    match i.Instr.target with
    | None -> -1
    | Some l -> (
        match Hashtbl.find_opt label_pos (Label.to_string l) with
        | Some (fn, blk) -> norm fn blk
        | None -> -1)
  in
  Array.iteri
    (fun fn blocks ->
      Array.iteri
        (fun blk instrs ->
          Array.iteri
            (fun ins (i : Instr.t) ->
              let k = base.(fn).(blk) + ins in
              cls.(k) <- Instr.iclass i;
              is_load.(k) <- Instr.is_load i;
              defs.(k) <- reg_indices (Instr.defs i);
              uses.(k) <- reg_indices (Instr.uses i);
              next.(k) <-
                (if ins + 1 < Array.length instrs then k + 1
                 else norm fn (blk + 1));
              (match Hashtbl.find_opt t.addrs i.Instr.id with
              | Some v ->
                  addr_stream.(k) <- Some v;
                  incr matched_addrs
              | None -> ());
              (match Hashtbl.find_opt t.branches i.Instr.id with
              | Some v ->
                  bit_stream.(k) <- Some v;
                  incr matched_bits
              | None -> ());
              match i.Instr.op with
              | Opcode.Beq | Opcode.Bne | Opcode.Blt | Opcode.Ble
              | Opcode.Bgt | Opcode.Bge ->
                  kind.(k) <- k_branch;
                  target.(k) <- resolve_target i
              | Opcode.Jmp ->
                  kind.(k) <- k_jump;
                  target.(k) <- resolve_target i
              | Opcode.Call ->
                  kind.(k) <- k_call;
                  target.(k) <- resolve_target i
              | Opcode.Ret -> kind.(k) <- k_ret
              | Opcode.Halt -> kind.(k) <- k_halt
              | _ -> kind.(k) <- k_fall)
            instrs)
        blocks)
    code;
  if !matched_addrs <> Hashtbl.length t.addrs then
    divergence
      "the replayed binary does not contain every traced memory \
       instruction (%d of %d streams bound)"
      !matched_addrs (Hashtbl.length t.addrs);
  if !matched_bits <> Hashtbl.length t.branches then
    divergence
      "the replayed binary does not contain every traced branch (%d of %d \
       streams bound)"
      !matched_bits
      (Hashtbl.length t.branches);
  { pr_trace = t;
    pr_n = n;
    pr_entry = entry;
    pr_cls = cls;
    pr_is_load = is_load;
    pr_defs = defs;
    pr_uses = uses;
    pr_kind = kind;
    pr_next = next;
    pr_target = target;
    pr_addr_stream = addr_stream;
    pr_bit_stream = bit_stream;
  }

(* Walk state over a prepared binary: instruction pointer, call stack
   (return addresses in a growable vector, so a call allocates nothing),
   per-stream consumption cursors, and the count of dynamic instructions
   replayed so far.  Mutable and single-owner: exactly one domain
   advances a cursor at a time (a work-stealing pool hands it between
   domains with the necessary happens-before ordering). *)
type cursor = {
  mutable cu_ip : int;
  cu_stack : Ivec.t;
  mutable cu_steps : int;
  mutable cu_running : bool;
  cu_acur : int array;
  cu_bcur : int array;
}

let cursor_done cu = not cu.cu_running
let steps cu = cu.cu_steps

(* Once the walk has halted, every recorded stream must have been
   consumed exactly. *)
let validate_end pr cu =
  if cu.cu_steps <> pr.pr_trace.dyn_instrs then
    divergence "replayed %d instructions of a %d-instruction trace"
      cu.cu_steps pr.pr_trace.dyn_instrs;
  for k = 0 to pr.pr_n - 1 do
    (match pr.pr_addr_stream.(k) with
    | Some v when cu.cu_acur.(k) <> v.Ivec.len ->
        divergence "address stream consumed partially (%d of %d)"
          cu.cu_acur.(k) v.Ivec.len
    | _ -> ());
    match pr.pr_bit_stream.(k) with
    | Some v when cu.cu_bcur.(k) <> v.Bitvec.len ->
        divergence "branch history consumed partially (%d of %d)"
          cu.cu_bcur.(k) v.Bitvec.len
    | _ -> ()
  done

(* A cursor at the entry point with nothing consumed.  An empty trace
   (or empty binary) starts already halted; the end checks run here so
   [cursor_done] always implies they have passed. *)
let start pr =
  let cu =
    { cu_ip = pr.pr_entry;
      cu_stack = Ivec.create ();
      cu_steps = 0;
      cu_running = pr.pr_n > 0 && pr.pr_trace.dyn_instrs > 0;
      cu_acur = Array.make (max 1 pr.pr_n) 0;
      cu_bcur = Array.make (max 1 pr.pr_n) 0;
    }
  in
  if not cu.cu_running then validate_end pr cu;
  cu

(* Replay at most [max_steps] dynamic instructions into [timing],
   advancing the cursor; a segment boundary falls between instruction
   packets, and the timing snapshot carries the partially filled packet,
   so cuts are exact wherever they land.  When the walk halts inside
   this segment the end-of-trace checks run immediately, so a
   divergence is never deferred to a later segment. *)
let replay_steps pr cu (timing : Timing.t) ~max_steps =
  let t = pr.pr_trace in
  let budget = ref max_steps in
  while cu.cu_running && !budget > 0 do
    let k = cu.cu_ip in
    if k < 0 then divergence "replay fell off the end of a function";
    cu.cu_steps <- cu.cu_steps + 1;
    decr budget;
    if cu.cu_steps > t.dyn_instrs then
      divergence "replay exceeds the captured trace (%d instructions)"
        t.dyn_instrs;
    let addr =
      match pr.pr_addr_stream.(k) with
      | None -> -1
      | Some v ->
          let c = cu.cu_acur.(k) in
          if c >= v.Ivec.len then
            divergence "address stream exhausted after %d accesses" c;
          cu.cu_acur.(k) <- c + 1;
          v.Ivec.data.(c)
    in
    Timing.issue_decoded timing ~cls:pr.pr_cls.(k)
      ~is_load:pr.pr_is_load.(k) ~defs:pr.pr_defs.(k) ~uses:pr.pr_uses.(k)
      addr;
    (match pr.pr_kind.(k) with
    | 0 (* fall *) -> cu.cu_ip <- pr.pr_next.(k)
    | 1 (* branch *) -> (
        match pr.pr_bit_stream.(k) with
        | None -> divergence "conditional branch has no recorded outcomes"
        | Some v ->
            let c = cu.cu_bcur.(k) in
            if c >= v.Bitvec.len then
              divergence "branch history exhausted after %d outcomes" c;
            cu.cu_bcur.(k) <- c + 1;
            cu.cu_ip <-
              (if Bitvec.get v c then pr.pr_target.(k) else pr.pr_next.(k)))
    | 2 (* jump *) -> cu.cu_ip <- pr.pr_target.(k)
    | 3 (* call *) ->
        Ivec.push cu.cu_stack pr.pr_next.(k);
        cu.cu_ip <- pr.pr_target.(k)
    | 4 (* ret *) ->
        let stack = cu.cu_stack in
        if stack.Ivec.len = 0 then cu.cu_running <- false
        else begin
          stack.Ivec.len <- stack.Ivec.len - 1;
          cu.cu_ip <- stack.Ivec.data.(stack.Ivec.len)
        end
    | _ (* halt *) -> cu.cu_running <- false);
    if not cu.cu_running then validate_end pr cu
  done

let replay t (p : Program.t) (timing : Timing.t) =
  let pr = prepare t p in
  let cu = start pr in
  (* one step beyond the trace length, so a walk that fails to halt on
     time raises the overrun divergence rather than stopping silently *)
  replay_steps pr cu timing ~max_steps:(t.dyn_instrs + 1)
