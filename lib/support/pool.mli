(** The one domain pool: every parallel job in the tree (the autotuner's
    candidate sweep, the batch driver's manifest) maps its work items
    through {!map}. *)

(** [map ~domains n f] computes [f ~worker i] for every [i] in [0, n) and
    returns the results in index order. [min domains n] workers pull
    indices from one shared atomic counter, so which worker runs which
    index depends on timing — [f]'s result must not depend on [worker].
    Worker 0 is the calling domain; workers [1 ..] are spawned domains,
    and none is spawned when [domains <= 1] or [n <= 1]. If an item
    raises, the remaining unclaimed items are skipped, every spawned
    domain is joined, and then the first exception (worker 0's, else the
    lowest-numbered failing worker's) is re-raised with its backtrace. *)
val map : domains:int -> int -> (worker:int -> int -> 'a) -> 'a array
