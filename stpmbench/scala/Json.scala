package stpmbench

import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule

/** JSON output, through the Jackson Scala module that ships with Spark. */
object Json {
  private val mapper = new ObjectMapper().registerModule(DefaultScalaModule)

  def render(v: Any): String = mapper.writeValueAsString(v)
}
