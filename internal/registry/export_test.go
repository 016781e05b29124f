package registry

// AdaptNow synchronously folds any accumulated accepted decisions into
// a candidate orientation version (see AdaptConfig), forcing the
// normally batch-triggered build.
func (r *Registry) AdaptNow() (uint64, error) { return r.adapt.build() }

// WaitAdapt blocks until any in-flight background adaptation build
// finishes.
func (r *Registry) WaitAdapt() { r.adapt.wg.Wait() }
