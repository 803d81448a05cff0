// fixture-path: src/sim/tick_stats.h
// fixture-expect: 1
// A periodic sampler leaking unannotated mutable state: the tick
// counter is written from a callback registered with every(), which
// is an event entry point like at()/after(). Without a
// V10_SHARED_STATE or V10_DOMAIN_LOCAL annotation nothing states
// which simulation owns the counter.

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
    long ticks_ = 0;
};
