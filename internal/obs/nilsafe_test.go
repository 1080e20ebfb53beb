package obs

import (
	"reflect"
	"testing"
)

// TestNilReceivers pins the disabled-telemetry contract: every exported
// method of the hook types runs on a nil receiver, with zero-value
// arguments, without panicking, so a holder of a nil hook calls through
// it freely. Reflection lists the methods, so one added later is
// covered without being named here.
func TestNilReceivers(t *testing.T) {
	for _, hook := range []any{(*EventLog)(nil), (*Recorder)(nil), (*Span)(nil), (*Progress)(nil)} {
		v := reflect.ValueOf(hook)
		if v.NumMethod() == 0 {
			t.Errorf("%T has no exported methods", hook)
		}
		for i := 0; i < v.NumMethod(); i++ {
			m := v.Method(i)
			args := make([]reflect.Value, m.Type().NumIn())
			for j := range args {
				args[j] = reflect.Zero(m.Type().In(j))
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("(%T).%s on a nil receiver panicked: %v", hook, v.Type().Method(i).Name, p)
					}
				}()
				if m.Type().IsVariadic() {
					m.CallSlice(args)
				} else {
					m.Call(args)
				}
			}()
		}
	}
}
