package obs

// ring keeps the most recent records of one kind: once it holds max
// records, each push overwrites the oldest and counts it as dropped. A
// negative max keeps every record. The owner guards it with its own mutex.
type ring[T any] struct {
	max     int
	items   []T
	next    int // overwrite cursor once len(items) == max
	dropped int64
}

func (r *ring[T]) push(v T) {
	if r.max < 0 || len(r.items) < r.max {
		r.items = append(r.items, v)
		return
	}
	r.items[r.next] = v
	r.next = (r.next + 1) % r.max
	r.dropped++
}

// all returns a copy of the retained records, oldest first (nil when
// empty).
func (r *ring[T]) all() []T {
	if len(r.items) == 0 {
		return nil
	}
	out := make([]T, 0, len(r.items))
	out = append(out, r.items[r.next:]...)
	return append(out, r.items[:r.next]...)
}
