(* Layer spans and counters, recorded from the benchmark's side of each
   call into a library layer.  Nothing inside the library is
   instrumented: a span wraps one public call and charges its wall time
   (and, on request, the minor words the calling domain allocated during
   it) to a layer name.  Layer spans never nest, so each span's duration
   is its self time.  The one enclosing span, [core.pool_phase], brackets
   each phase of a sweep in the calling domain, to tell the pool's
   waiting apart from the sweep's own serial work.

   Every domain accumulates into its own tables (pool workers included),
   and [totals] sums them.  With tracing off a span is just the call. *)

let enabled = ref false

type tables = {
  times : (string, float) Hashtbl.t;  (** layer -> seconds *)
  counts : (string, float) Hashtbl.t;  (** counter -> total *)
}

let registry = ref []
let registry_lock = Mutex.create ()

let tables_key =
  Domain.DLS.new_key (fun () ->
      let t = { times = Hashtbl.create 32; counts = Hashtbl.create 32 } in
      Mutex.protect registry_lock (fun () -> registry := t :: !registry);
      t)

let bump tbl name v =
  Hashtbl.replace tbl name
    (v +. Option.value ~default:0. (Hashtbl.find_opt tbl name))

let add_time name dt = bump (Domain.DLS.get tables_key).times name dt

let count name v =
  if !enabled then bump (Domain.DLS.get tables_key).counts name v

let span name f =
  if not !enabled then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    let r = f () in
    add_time name (Unix.gettimeofday () -. t0);
    r
  end

(* A span that also counts the minor-heap words the calling domain
   allocated inside it, under [name ^ "_words"]. *)
let span_words name f =
  if not !enabled then f ()
  else begin
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let t1 = Unix.gettimeofday () in
    let w1 = Gc.minor_words () in
    add_time name (t1 -. t0);
    count (name ^ "_words") (w1 -. w0);
    r
  end

(* Start a traced pass with every table empty. *)
let reset () =
  Mutex.protect registry_lock (fun () ->
      List.iter
        (fun t ->
          Hashtbl.reset t.times;
          Hashtbl.reset t.counts)
        !registry)

(* [(times, counts)] summed over every domain that recorded anything. *)
let totals () =
  let times = Hashtbl.create 32 and counts = Hashtbl.create 32 in
  Mutex.protect registry_lock (fun () ->
      List.iter
        (fun t ->
          Hashtbl.iter (bump times) t.times;
          Hashtbl.iter (bump counts) t.counts)
        !registry);
  let get tbl name = Option.value ~default:0. (Hashtbl.find_opt tbl name) in
  (get times, get counts)

(* A clock for the [on_pass] marks of one compilation: each mark charges
   the time since the previous mark (or since the clock was made) to
   [layer name]. *)
let pass_clock layer =
  if not !enabled then fun _ -> ()
  else begin
    let last = ref (Unix.gettimeofday ()) in
    fun name ->
      let now = Unix.gettimeofday () in
      add_time (layer name) (now -. !last);
      last := now
  end
