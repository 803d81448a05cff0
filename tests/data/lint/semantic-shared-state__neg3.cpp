// fixture-path: src/sim/tick_stats.h
// fixture-expect: 0
// The annotated twin of pos4: the tick counter written from a
// periodic every() callback carries V10_SHARED_STATE, so its
// ownership contract is explicit.

class TickStats
{
  public:
    void
    arm()
    {
        sim_.every(64, [this] { ticks_ = ticks_ + 1; });
    }

  private:
    Simulator sim_;
    long ticks_ V10_SHARED_STATE = 0;
};
