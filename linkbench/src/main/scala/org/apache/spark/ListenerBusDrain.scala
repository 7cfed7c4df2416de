package org.apache.spark

/** Bridge into the `private[spark]` listener bus: listener events arrive
  * asynchronously, so counters read right after an action can miss its last
  * task. Draining the bus first makes per-operation counters exact.
  */
object ListenerBusDrain {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
